package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The reference is a fixed HTTP and JSON workload, standard library only,
// that runs beside coopserve for a whole run. Other tenants of a shared
// host slow everything on it, at times to half speed for minutes. The
// reference's CPU time per request, measured over the same stretch on the
// same host, tracks that slowdown: across runs it correlated at 0.98 with
// coopserve's CPU per query. The time metrics are therefore scaled by
// workload.RefUS ÷ (the reference's cost in that stretch), which reads them
// as if the host ran at the speed where the reference costs RefUS. The
// reference never changes with the code under test; only coopserve's
// competition for the host's caches can reach it.

// referenceEnv makes this binary serve the reference on the address it
// holds instead of running the benchmark.
const referenceEnv = "E2E_REFERENCE_ADDR"

// referenceRate is the reference's request rate: enough requests for a
// precise cost per request, at a few percent of one core.
const referenceRate = 100

// refResult and refAnswer mirror the shape of coopserve's wire answers, so
// the reference does the kind of decoding and encoding coopserve does.
type refResult struct {
	Node    int64 `json:"node"`
	Key     int64 `json:"key"`
	Payload int64 `json:"payload"`
}

type refAnswer struct {
	Kind       string         `json:"kind"`
	P          int            `json:"p"`
	Steps      int            `json:"steps"`
	Rounds     int            `json:"rounds"`
	Cache      string         `json:"cache,omitempty"`
	PhaseSteps map[string]int `json:"phase_steps,omitempty"`
	Results    []refResult    `json:"results,omitempty"`
}

// refBody is the request the reference is sent: n catalog queries, as
// many as the workload's requests carry, since the reference tracks the
// host best for work of the same shape.
func refBody(n int) []byte {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{Kind: kindCatalog, Shard: i % 2, Key: 1000 + 7919*int64(i), Node: 100 + int64(i)}
	}
	return encodeBody(nil, qs, nil)
}

// serveReference serves POST /query, which answers every query with eight
// results in coopserve's wire shape, and GET /cpu, which reports the
// process's CPU time in ns.
func serveReference(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []refQuery `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var resp struct {
			Answers []refAnswer `json:"answers"`
		}
		for _, q := range req.Queries {
			a := refAnswer{Kind: q.Kind, P: 128, Steps: 13, Rounds: 1, Cache: "hit",
				PhaseSteps: map[string]int{"root-coop": 1, "hop-descent": 12}}
			for d := int64(0); d < 8; d++ {
				a.Results = append(a.Results, refResult{Node: q.Leaf >> d, Key: q.Key + 977*d, Payload: -1})
			}
			resp.Answers = append(resp.Answers, a)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/cpu", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, int64(selfCPU()))
	})
	return http.ListenAndServe(addr, mux)
}

// refQuery is one catalog query of a /query body.
type refQuery struct {
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Key   int64  `json:"key"`
	Leaf  int64  `json:"leaf"`
}

// reference is a running reference process and the sender that loads it.
type reference struct {
	cmd    *exec.Cmd
	url    string
	done   chan struct{} // closed once the process has been waited for
	stop   chan struct{} // closed to stop the sender
	wg     sync.WaitGroup
	sent   atomic.Int64 // requests answered
	client *http.Client
	body   []byte
}

// refReading is the reference's CPU time and answered requests at a moment.
type refReading struct {
	cpu  time.Duration
	sent int64
}

// refCost is the reference's CPU µs per request between two readings.
func refCost(a, b refReading) float64 {
	return ratio(us(b.cpu-a.cpu), float64(b.sent-a.sent))
}

// startReference runs this binary as the reference process and starts
// sending it referenceRate requests per second of qpr queries each.
func startReference(ctx context.Context, qpr int) (*reference, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), referenceEnv+"="+addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the reference: %w", err)
	}
	r := &reference{
		cmd:    cmd,
		url:    "http://" + addr,
		done:   make(chan struct{}),
		stop:   make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}},
		body:   refBody(qpr),
	}
	go func() {
		_ = cmd.Wait()
		close(r.done)
	}()
	for t0 := time.Now(); ; {
		if _, err := r.reading(); err == nil {
			break
		}
		select {
		case <-r.done:
			return nil, fmt.Errorf("the reference process exited before serving")
		default:
		}
		if err := ctx.Err(); err != nil {
			r.close()
			return nil, err
		}
		if time.Since(t0) > readyTimeout {
			r.close()
			return nil, fmt.Errorf("the reference did not serve within %v", readyTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.wg.Add(1)
	go r.send()
	return r, nil
}

// send posts the reference body referenceRate times a second until
// stopped.
func (r *reference) send() {
	defer r.wg.Done()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	tick := time.NewTicker(time.Second / referenceRate)
	defer tick.Stop()
	var buf bytes.Buffer
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		if status, err := post(context.Background(), client, r.url+"/query", r.body, "", &buf); err == nil && status == http.StatusOK {
			r.sent.Add(1)
		}
	}
}

// reading takes the reference's CPU time and answered-request count.
func (r *reference) reading() (refReading, error) {
	sent := r.sent.Load()
	resp, err := r.client.Get(r.url + "/cpu")
	if err != nil {
		return refReading{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return refReading{}, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return refReading{}, fmt.Errorf("reference /cpu: %w", err)
	}
	return refReading{cpu: time.Duration(ns), sent: sent}, nil
}

// readingAfter waits until at least n more requests than in from were
// answered, so a short stretch still has a usable cost, then reads.
func (r *reference) readingAfter(ctx context.Context, from refReading, n int64) (refReading, error) {
	for r.sent.Load() < from.sent+n {
		if err := ctx.Err(); err != nil {
			return refReading{}, err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return r.reading()
}

// close stops the sender and the process and waits for both.
func (r *reference) close() {
	if r == nil {
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	r.client.CloseIdleConnections()
	_ = r.cmd.Process.Signal(syscall.SIGKILL)
	<-r.done
}
