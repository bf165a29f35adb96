package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running coopserve process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	done    chan struct{} // closed once the process has been waited for
	waitErr error
}

// readyTimeout bounds how long a start-up may take before the run fails.
const readyTimeout = 120 * time.Second

// startServer execs coopserve with the given flags on a free loopback port
// and waits for its first /readyz 200. The returned duration runs from just
// before exec to that response: process start, build or restore, and the
// save-on-build snapshot write.
func startServer(ctx context.Context, bin string, flags []string, logPath string) (*serverProc, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append(append([]string(nil), flags...), "-addr="+addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start coopserve: %w", err)
	}
	p := &serverProc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	for {
		if ready(client, "http://"+addr+"/readyz") {
			return p, time.Since(t0), nil
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("coopserve exited before ready (%v):\n%s", p.waitErr, logTail(logPath))
		default:
		}
		if err := ctx.Err(); err != nil {
			p.stop()
			return nil, 0, err
		}
		if time.Since(t0) > readyTimeout {
			p.stop()
			return nil, 0, fmt.Errorf("coopserve not ready after %v:\n%s", readyTimeout, logTail(logPath))
		}
		// The hot workload starts up in about 15 ms, so the poll interval
		// must stay well below that.
		sleep(500 * time.Microsecond)
	}
}

// ready reports whether GET url answered 200. Before the server listens
// the request fails, and while it builds it answers 503.
func ready(client *http.Client, url string) bool {
	resp, err := client.Get(url)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// freePort returns a loopback address that was free a moment ago.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop sends SIGTERM, which makes coopserve drain and write its final
// snapshot, and waits for the process to exit; after 30 s it kills it.
// Calling stop again returns the first outcome.
func (p *serverProc) stop() error {
	if p == nil {
		return nil
	}
	select {
	case <-p.done:
		return p.waitErr
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	return p.waitErr
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// logTail returns the last lines of a server log for error messages.
func logTail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-10):], "\n")
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user plus system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// parseProcStat reads utime and stime (fields 14 and 15) from the contents
// of /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// hold spaces, so fields are counted from its closing parenthesis.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSKB returns the process's peak resident set (VmHWM) in kB.
func peakRSSKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// parseVmHWM reads the VmHWM line of /proc/<pid>/status, in kB.
func parseVmHWM(b []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// scrape is one reading of the server's counters and CPU time, of the
// benchmark's own CPU time, and of the reference.
type scrape struct {
	at     time.Time
	cpu    time.Duration
	client time.Duration
	ref    refReading
	prom   map[string]float64
}

// takeScrape reads /proc/<pid>/stat, GET /metrics, this process's rusage
// and the reference.
func takeScrape(client *http.Client, p *serverProc, ref *reference) (scrape, error) {
	s := scrape{at: time.Now(), client: selfCPU()}
	var err error
	if s.cpu, err = procCPU(p.pid()); err != nil {
		return s, err
	}
	if s.ref, err = ref.reading(); err != nil {
		return s, err
	}
	resp, err := client.Get("http://" + p.addr + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	s.prom, err = parseProm(body)
	return s, err
}

// parseProm reads Prometheus text exposition into sample name (with any
// labels) → value.
func parseProm(b []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus text: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// resetPeakRSS restarts the process's VmHWM from its current RSS (Linux
// 4.0 and later), so the next reading covers only what follows. Where the
// kernel refuses, the next reading also covers the start-up; only the
// per-layer serving peak reads high then, so the error is dropped.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// delta returns the growth of sample name between two scrapes.
func delta(a, b scrape, name string) float64 { return b.prom[name] - a.prom[name] }
