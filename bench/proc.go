package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/vcrypt"
)

// The bench process plays the phones. For each workload it re-executes
// itself as a second process that plays the server, so getrusage charges
// client CPU (the paper's energy axis) and server CPU separately. The
// role is chosen by childEnv, which carries the child's spec as JSON;
// the test binary's TestMain honours the same variable.
//
// Protocol, one line each way per step: the child prints its addresses
// as JSON, the parent writes "start" when the timed window opens and
// "done" when it closes, and the child answers "done" with one JSON
// result line and exits. EOF on the child's stdin before "start" means
// the parent discarded this set-up; the child exits quietly.
const childEnv = "THRIFTYBENCH_CHILD"

// childSpec is everything the server process needs; the clip travels as
// a codec container file so it is encoded once, by the parent.
type childSpec struct {
	Workload string        `json:"workload"`
	Clip     string        `json:"clip"`
	Policy   vcrypt.Policy `json:"policy"`
	Key      []byte        `json:"key"`
	Frames   int           `json:"frames,omitempty"`   // stream_paced: looped stream length
	Segments int           `json:"segments,omitempty"` // upload_http: segments per upload
	Sample   int           `json:"sample,omitempty"`   // upload_http: upload i is byte-checked when (i+Sample)%16 == 0
	Witness  []uint32      `json:"witness,omitempty"`  // ingest_fanin: sessions whose clip is byte-checked
}

// usage is one process's resource counters at an instant.
type usage struct {
	cpu    time.Duration // user + system
	maxRSS int64         // KiB, lifetime peak
	allocs uint64        // heap objects allocated so far
	gcCPU  float64       // seconds of GC CPU so far
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: peakRSS(ru.Maxrss),
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
	}
}

// peakRSS returns this process image's peak resident set in KiB. Linux
// carries ru_maxrss across exec, so a child started by a large parent
// would report the parent's peak; VmHWM in /proc/self/status belongs to
// the image alone. Elsewhere ru_maxrss is the best available.
func peakRSS(maxrss int64) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return maxrss
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
				return kb
			}
		}
	}
	return maxrss
}

// residentKB returns the process's resident set in KiB from
// /proc/self/statm, or 0 where that is unavailable.
func residentKB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// window is the resource use of one process over the timed window.
type window struct {
	CPUNs    int64   `json:"cpu_ns"`
	Allocs   uint64  `json:"allocs"`
	GCFrac   float64 `json:"gc_cpu_frac"` // GC CPU over process CPU
	MaxRSSKB int64   `json:"maxrss_kb"`
}

func windowSince(base usage) window {
	now := readUsage()
	w := window{CPUNs: int64(now.cpu - base.cpu), Allocs: now.allocs - base.allocs, MaxRSSKB: now.maxRSS}
	if w.CPUNs > 0 {
		w.GCFrac = (now.gcCPU - base.gcCPU) * 1e9 / float64(w.CPUNs)
	}
	return w
}

// childResult is the server process's answer to "done". Each workload
// fills its own fields.
type childResult struct {
	Window     window `json:"window"`
	RetainedKB int64  `json:"retained_kb"` // resident set after the window, garbage collected

	// stream_paced
	First       []int64 `json:"first_ns,omitempty"` // per frame, first packet captured
	Done        []int64 `json:"done_ns,omitempty"`  // per frame, last packet captured; -1 = never
	Captured    int     `json:"captured,omitempty"`
	Usable      int     `json:"usable,omitempty"`
	Duplicates  int     `json:"duplicates,omitempty"`
	BadFrames   int     `json:"bad_frames"`
	EvBadFrames int     `json:"ev_bad_frames"`
	EvPSNR      float64 `json:"ev_psnr,omitempty"`

	// upload_http
	Acked     int `json:"acked,omitempty"`
	Sampled   int `json:"sampled,omitempty"`
	SampleBad int `json:"sample_bad"`

	// ingest_fanin
	Totals     transport.IngestTotals `json:"totals"`
	WitnessBad int                    `json:"witness_bad"`

	// meter
	Meter []meterSample `json:"meter,omitempty"`
}

// server is one workload's server half, or the meter, inside the child
// process.
type server interface {
	addrs() []string
	start()                 // the timed window opens
	drain()                 // the window closed: wait for in-flight work
	check(res *childResult) // verify outputs, off the clock
	close()
}

// serve is the child's main: it runs one server for the parent and
// returns the process exit code.
func serve(specJSON string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "thriftybench server:", err)
		return 1
	}
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fail(err)
	}
	srv, err := newServer(spec)
	if err != nil {
		return fail(err)
	}
	defer srv.close()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(struct {
		Addrs []string `json:"addrs"`
	}{srv.addrs()}); err != nil {
		return fail(err)
	}
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() || in.Text() != "start" {
		return 0
	}
	base := readUsage()
	srv.start()
	if !in.Scan() || in.Text() != "done" {
		return 0
	}
	srv.drain()
	res := childResult{Window: windowSince(base)}
	// Off the clock: what the server still holds once its garbage is
	// collected and the free memory returned to the system.
	debug.FreeOSMemory()
	res.RetainedKB = residentKB()
	srv.check(&res)
	if err := out.Encode(res); err != nil {
		return fail(err)
	}
	return 0
}

func newServer(spec childSpec) (server, error) {
	if spec.Workload == meterName {
		return newMeterServer(), nil
	}
	f, err := os.Open(spec.Clip)
	if err != nil {
		return nil, err
	}
	cfg, frames, err := codec.ReadContainer(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, err
	}
	switch spec.Workload {
	case streamName:
		return newStreamServer(spec, cfg, frames)
	case uploadName:
		return newUploadServer(spec, cfg, frames)
	case ingestName:
		return newIngestServer(spec, cfg, frames)
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

// setupRepeats is how many times a run performs its set-up. setup_s is
// the median of their times, and the last set-up is the one the window
// measures.
const setupRepeats = 5

// harness runs what every workload shares around its own load: the
// meter, the set-up repeated setupRepeats times with a fresh server each
// time, and the opening and closing of the timed window on the server.
type harness struct {
	meter, server *child
	setups        [][2]int64 // each set-up's start and end, Unix ns
	base          usage
	opened        int64 // Unix ns
}

// measured is what the harness measured around one timed window.
type measured struct {
	setupS, rawSetupS float64 // median set-up time, scaled and unscaled
	client            window  // the bench process over the window
	server            childResult
	meterNs           float64 // the meter's mean reading in the window
}

// setUp starts the meter, then runs the workload's set-up; each call of
// setup prepares the inputs and returns the spec of a fresh server, and
// the server started for the previous call is stopped first.
func setUp(setup func() (childSpec, error)) (*harness, error) {
	h := &harness{}
	var err error
	if h.meter, err = startMeter(); err != nil {
		return nil, err
	}
	for range setupRepeats {
		if h.server != nil {
			h.server.stop()
			h.server = nil
		}
		t0 := time.Now().UnixNano()
		spec, err := setup()
		if err == nil {
			h.server, err = startChild(spec)
		}
		if err != nil {
			h.stop()
			return nil, err
		}
		h.setups = append(h.setups, [2]int64{t0, time.Now().UnixNano()})
	}
	return h, nil
}

// open opens the timed window: the client's usage is counted from here
// and the server is told to start counting.
func (h *harness) open() error {
	runtime.GC()
	if err := h.server.send("start"); err != nil {
		return err
	}
	h.base = readUsage()
	h.opened = time.Now().UnixNano()
	return nil
}

// close ends the window on the client, waits drain for the server to
// work off what is in flight, then collects the server's result and the
// meter's readings.
func (h *harness) close(drain time.Duration) (*measured, error) {
	m := &measured{client: windowSince(h.base)}
	closed := time.Now().UnixNano()
	time.Sleep(drain)
	err := h.server.finish(&m.server)
	h.server = nil
	ms, merr := finishMeter(h.meter)
	h.meter = nil
	if err := errors.Join(err, merr); err != nil {
		return nil, err
	}
	var ok bool
	if m.meterNs, ok = meterMean(ms, h.opened, closed); !ok {
		return nil, errors.New("the meter took no readings in the window")
	}
	m.setupS, m.rawSetupS = setupTimes(h.setups, ms)
	return m, nil
}

// setupTimes returns the median set-up time, each set-up scaled by the
// meter's mean reading while it ran (or over the whole run, if it took
// none), and the unscaled median.
func setupTimes(setups [][2]int64, ms []meterSample) (scaled, raw float64) {
	all, _ := meterMean(ms, math.MinInt64, math.MaxInt64)
	var ss, rs []float64
	for _, s := range setups {
		d := float64(s[1]-s[0]) / 1e9
		m, ok := meterMean(ms, s[0], s[1])
		if !ok {
			m = all
		}
		rs = append(rs, d)
		ss = append(ss, d*meterRefNs/m)
	}
	return percentile(ss, 50), percentile(rs, 50)
}

// stop stops the processes that are still running.
func (h *harness) stop() {
	for _, c := range []*child{h.server, h.meter} {
		if c != nil {
			c.stop()
		}
	}
}

// child is the parent's handle on a server process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	lines chan []byte
	addrs []string
}

// Child replies are at most a few hundred KB: the meter's readings and
// the stream server's per-frame times.
const maxLine = 16 << 20

// startChild launches the server process and waits for its addresses.
func startChild(spec childSpec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server process: %w", err)
	}
	// A child prints two lines in all, so the reader never blocks on a
	// parent that has stopped listening.
	c := &child{cmd: cmd, in: in, lines: make(chan []byte, 2)}
	go func() {
		defer close(c.lines)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 0, 1<<16), maxLine)
		for sc.Scan() {
			c.lines <- append([]byte(nil), sc.Bytes()...)
		}
	}()
	var ready struct {
		Addrs []string `json:"addrs"`
	}
	if err := c.read(&ready, 60*time.Second); err != nil {
		c.stop()
		return nil, fmt.Errorf("server process: %w", err)
	}
	c.addrs = ready.Addrs
	return c, nil
}

func (c *child) read(v any, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case line, ok := <-c.lines:
		if !ok {
			return errors.New("exited without answering")
		}
		return json.Unmarshal(line, v)
	case <-timer.C:
		return fmt.Errorf("no answer within %v", timeout)
	}
}

func (c *child) send(cmd string) error {
	_, err := io.WriteString(c.in, cmd+"\n")
	return err
}

// finish closes the window on the child, reads its result and reaps it.
func (c *child) finish(res *childResult) error {
	err := c.send("done")
	if err == nil {
		err = c.read(res, 120*time.Second)
	}
	if werr := c.stop(); err == nil {
		err = werr
	}
	return err
}

// stop closes the child's stdin, which ends it, and waits for it to
// exit, killing it if it does not within a few seconds.
func (c *child) stop() error {
	c.in.Close()
	exited := make(chan error, 1)
	go func() { exited <- c.cmd.Wait() }()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case err := <-exited:
		return err
	case <-timer.C:
		c.cmd.Process.Kill()
		<-exited
		return errors.New("server process did not exit; killed")
	}
}
