package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves behind: the built sketchd
// binary's location, one scratch directory, and the live children.
// close kills the children and removes the scratch directory; main
// calls it on every exit path, the signal handler included.
type harness struct {
	root    string  // checkout root: the directory of the setsketch go.mod
	sketchd string  // server binary, built once per run
	tmp     string  // this run's scratch directory (WAL dirs live here)
	buildS  float64 // go build wall time, reported in the environment block

	mu   sync.Mutex
	live map[*server]struct{} // guarded by: mu
}

// findRoot walks up from the working directory to the setsketch module
// root, so the benchmark runs the same from the checkout root (run.sh)
// and from bench/ (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module setsketch\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no setsketch go.mod above the working directory")
		}
		dir = parent
	}
}

// newHarness locates the checkout, builds sketchd from source into
// .bench_build/ and creates the run's scratch directory there, so the
// benchmark reads and writes only inside its checkout.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	h := &harness{root: root, sketchd: filepath.Join(build, "sketchd"), live: map[*server]struct{}{}}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", h.sketchd, "./cmd/sketchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/sketchd: %v\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	if h.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

// close kills every live child, waits for each, and removes the
// scratch directory. Safe to call more than once.
func (h *harness) close() {
	h.mu.Lock()
	live := make([]*server, 0, len(h.live))
	for s := range h.live {
		live = append(live, s)
	}
	h.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
	os.RemoveAll(h.tmp)
}

// walDir returns a fresh, unique WAL directory under the scratch
// directory.
func (h *harness) walDir() (string, error) {
	return os.MkdirTemp(h.tmp, "wal-")
}

// server is one `sketchd serve` child in the common benchmark shape.
type server struct {
	h       *harness
	cmd     *exec.Cmd
	addr    string    // coordinator address, read back from the log
	admin   string    // admin endpoint address, likewise
	spawned time.Time // just before exec, the start of setup_s and recovery_s

	logDone chan struct{} // closed when the stderr reader hit EOF
	once    sync.Once

	mu   sync.Mutex
	tail []string // guarded by: mu — last log lines, for failure reports
}

const (
	msgListening      = `msg="coordinator listening" addr=`
	msgAdminListening = `msg="admin endpoint listening" addr=`
)

// logAddr extracts the address a sketchd log line announces after
// marker, if the line carries it.
func logAddr(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

// spawn starts a server on loopback port 0 with GOMAXPROCS=1 and
// returns once it has logged both bound addresses — which, with a WAL
// directory, is after recovery finished. An empty walDir serves
// without durability.
func (h *harness) spawn(walDir string) (*server, error) {
	args := []string{"serve", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-copies", "128", "-s", "32", "-wise", "8", "-seed", "1",
		"-shards", "1", "-estimate-workers", "-1"}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir, "-fsync", "always", "-snapshot-interval", "0")
	}
	s := &server{h: h, logDone: make(chan struct{})}
	s.cmd = exec.Command(h.sketchd, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The child must not outlive a benchmark that is itself SIGKILLed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.live[s] = struct{}{}
	h.mu.Unlock()

	addrs := make(chan [2]string, 1)
	go s.readLog(stderr, addrs)
	select {
	case a, ok := <-addrs:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("sketchd exited before listening:\n%s", s.logTail())
		}
		s.addr, s.admin = a[0], a[1]
		return s, nil
	case <-time.After(2 * time.Minute):
		s.kill()
		return nil, fmt.Errorf("sketchd did not listen within 2m:\n%s", s.logTail())
	}
}

// readLog drains the child's stderr until EOF, reporting the two bound
// addresses once both were logged and keeping a short tail for errors.
func (s *server) readLog(r io.Reader, addrs chan<- [2]string) {
	defer close(s.logDone)
	var found [2]string
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		s.mu.Lock()
		if s.tail = append(s.tail, line); len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
		if a, ok := logAddr(line, msgListening); ok {
			found[0] = a
		}
		if a, ok := logAddr(line, msgAdminListening); ok {
			found[1] = a
		}
		if !sent && found[0] != "" && found[1] != "" {
			addrs <- found
			sent = true
		}
	}
	if !sent {
		close(addrs)
	}
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// kill SIGKILLs the child and waits until it has ended. Idempotent.
func (s *server) kill() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.logDone
		s.cmd.Wait()
		s.h.mu.Lock()
		delete(s.h.live, s)
		s.h.mu.Unlock()
	})
}

// parseSchedstat returns the on-CPU time in seconds from the contents
// of a /proc/<pid>/task/<tid>/schedstat file: its first field, in
// nanoseconds. (utime+stime in /proc/<pid>/stat count the same time in
// 10 ms ticks, which is 3% of what the server uses in one query_mix
// slice.)
func parseSchedstat(schedstat string) (float64, error) {
	f := strings.Fields(schedstat)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat run time: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// parseVmHWM returns the peak resident set size in MB from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// cpuSeconds is the user+system CPU time the child's threads have
// used so far.
func (s *server) cpuSeconds() (float64, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d: %v", s.cmd.Process.Pid, err)
	}
	var total float64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		t, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// rssMB is the child's peak resident set size so far.
func (s *server) rssMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(status))
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window is one measured interval: wall clock plus the CPU of both
// processes, opened after set-up and closed at the last ack.
type window struct {
	start   time.Time
	srvCPU  float64
	selfCPU float64
}

func (s *server) openWindow() (window, error) {
	cpu, err := s.cpuSeconds()
	return window{start: time.Now(), srvCPU: cpu, selfCPU: selfCPUSeconds()}, err
}

// close returns the window's wall seconds and the CPU seconds the
// server child and the benchmark process spent inside it.
func (w window) close(s *server) (wall, cpu float64, err error) {
	wall = time.Since(w.start).Seconds()
	srv, err := s.cpuSeconds()
	return wall, srv - w.srvCPU + selfCPUSeconds() - w.selfCPU, err
}

// parseMetrics reads a Prometheus text exposition into series → value.
// Keys are the series exactly as exposed, labels included.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape reads the child's /metrics endpoint.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
