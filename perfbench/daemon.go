package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	osexec "os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// readyTimeout bounds a daemon's boot: generation, training and index
// build take a few seconds on a 2-CPU host.
const readyTimeout = 90 * time.Second

var servingLine = regexp.MustCompile(`qpredictd serving on http://(\S+)`)

// daemon is one qpredictd process started by the benchmark with its stock
// settings. Its standard output and error go to a log file that is kept
// when the run fails.
type daemon struct {
	cmd    *osexec.Cmd
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
	Addr   string
	Setup  time.Duration // process start until /readyz answers ready
}

// startDaemon boots bin and waits until it is ready. stateDir, when set,
// is passed as -state-dir.
func startDaemon(bin, logPath, stateDir string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0"}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}
	d := &daemon{cmd: osexec.Command(bin, args...), log: logf, exited: make(chan struct{})}
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(start); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w\n--- %s ---\n%s", err, logPath, tail(logPath, 2000))
	}
	d.Setup = time.Since(start)
	return d, nil
}

// waitReady polls the log for the listen address, then /readyz.
func (d *daemon) waitReady(start time.Time) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for time.Since(start) < readyTimeout {
		select {
		case <-d.exited:
			return fmt.Errorf("qpredictd exited during boot: %v", d.cmd.ProcessState)
		default:
		}
		if d.Addr == "" {
			if b, err := os.ReadFile(d.log.Name()); err == nil {
				if m := servingLine.FindSubmatch(b); m != nil {
					d.Addr = string(m[1])
				}
			}
		}
		if d.Addr != "" {
			resp, err := hc.Get("http://" + d.Addr + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("qpredictd not ready after %s", readyTimeout)
}

// stop kills the daemon and waits for it to exit. Measurements are over by
// then, so the graceful drain (which would finish any observe backlog) is
// skipped.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// cpuTime reads the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB reads the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metricsSnap is the part of the daemon's /metrics document the benchmark
// reads.
type metricsSnap struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// delta returns the change of a counter from a to b.
func (b metricsSnap) delta(a metricsSnap, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

func scrape(c *client) (metricsSnap, error) {
	var m metricsSnap
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("/metrics answered %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

// modelGeneration reads the served generation from /v1/model.
func modelGeneration(c *client) (int64, error) {
	status, body, err := c.do(http.MethodGet, "/v1/model", nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/v1/model answered %d", status)
	}
	var m struct {
		Model struct {
			Generation int64 `json:"generation"`
		} `json:"model"`
	}
	err = json.Unmarshal(body, &m)
	return m.Model.Generation, err
}

// tail returns the last n bytes of a file, for error reports.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
