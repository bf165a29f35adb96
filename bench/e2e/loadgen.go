package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// keepEvery is the stride of timed-phase responses kept for the oracle.
const keepEvery = 64

// requestTimeout bounds one exchange, so a wedged server fails the
// request instead of hanging the run.
const requestTimeout = 30 * time.Second

// sample is one request's outcome; times are offsets from the load start.
type sample struct {
	idx     int           // request number in the workload's stream
	due     time.Duration // when the schedule said to send it
	late    time.Duration // how late the dispatcher woke for it
	sent    time.Duration // when a connection started the exchange
	done    time.Duration // when the whole response had been read
	queries int
	answers int
	steps   int64
	failed  int // queries failed: transport error, non-200, or an err answer
	bytes   int
	traced  bool
	body    []byte // the response, kept for every keepEvery-th request
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// loadgen drives coopserve's POST /query from one process over conns
// keep-alive connections, one sender each.
type loadgen struct {
	url  string
	w    *workload
	seed int64
	pool *geoPool
}

// run is the open-loop generator: request first+k is due at
// start+sched[k] whatever the state of earlier requests, and waits for a
// free connection if none is idle. It returns one sample per request.
// Requests due at or after traceFrom carry their span id as X-Request-ID.
func (l *loadgen) run(ctx context.Context, start time.Time, first int, sched []time.Duration, traceFrom time.Duration) []sample {
	out := make([]sample, len(sched))
	for k, off := range sched {
		out[k].idx, out[k].due, out[k].traced = first+k, off, off >= traceFrom
	}
	// Sized to the whole schedule: a backlog queues here, never in the
	// dispatcher, so dispatch lateness measures only the timer.
	ch := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.sender(ctx, start, out, ch)
		}()
	}
	for k := range out {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(out[k].due)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		out[k].late = time.Since(due)
		ch <- k
	}
	close(ch)
	wg.Wait()
	return out
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep would park
// the goroutine on the runtime's timer, which an idle process wakes through
// epoll with millisecond granularity: at these arrival rates that made the
// dispatcher's p99 lateness about 1 ms.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sender owns one keep-alive connection and sends the requests it takes
// from ch one at a time.
func (l *loadgen) sender(ctx context.Context, start time.Time, out []sample, ch <-chan int) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: requestTimeout}
	var qs []query
	var body []byte
	var resp bytes.Buffer
	for k := range ch {
		s := &out[k]
		qs = genRequest(l.w, l.seed, s.idx, l.pool, qs[:0])
		body = encodeBody(body[:0], qs, l.pool)
		id := ""
		if s.traced {
			id = spanID(l.seed, s.idx)
		}
		s.queries = len(qs)
		s.sent = time.Since(start)
		status, err := post(ctx, client, l.url, body, id, &resp)
		s.done = time.Since(start)
		s.bytes = resp.Len()
		if err != nil || status != http.StatusOK {
			s.failed = s.queries
			continue
		}
		answers, steps, errs, ok := scanAnswers(resp.Bytes())
		if !ok || answers != s.queries {
			s.failed = s.queries
			continue
		}
		s.answers, s.steps, s.failed = answers, steps, errs
		if s.idx%keepEvery == 0 {
			s.body = bytes.Clone(resp.Bytes())
		}
	}
}

// spanID is request idx's root span id, sent as X-Request-ID.
func spanID(seed int64, idx int) string { return fmt.Sprintf("e2e-%d-%d", seed, idx) }

// post sends one /query body and reads the whole response into buf.
func post(ctx context.Context, client *http.Client, url string, body []byte, reqID string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

var (
	answersKey = []byte(`"answers":[`)
	stepsKey   = []byte(`"steps":`)
	errKey     = []byte(`"err":`)
)

// scanAnswers counts the answers of a /query response and sums their steps
// without decoding it: every answer carries exactly one "steps" field, and
// the answers array is the response's last field. Decoding every 13–17 KB
// catalog body would take CPU from the server on the shared cores; the kept
// bodies are decoded in full after the phase, which cross-checks this scan.
func scanAnswers(body []byte) (answers int, steps int64, errs int, ok bool) {
	i := bytes.Index(body, answersKey)
	if i < 0 {
		return 0, 0, 0, false
	}
	rest := body[i+len(answersKey):]
	errs = bytes.Count(rest, errKey)
	for {
		j := bytes.Index(rest, stepsKey)
		if j < 0 {
			return answers, steps, errs, true
		}
		rest = rest[j+len(stepsKey):]
		n := 0
		var v int64
		for ; n < len(rest) && rest[n] >= '0' && rest[n] <= '9'; n++ {
			v = v*10 + int64(rest[n]-'0')
		}
		if n == 0 {
			return 0, 0, 0, false
		}
		answers++
		steps += v
	}
}
