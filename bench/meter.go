package main

import (
	"errors"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The meter is a third process that runs from the start of a workload's
// set-up to the end of its timed window. Fifty times a second it times a
// fixed unit of work, twenty 1000-byte datagram round trips over a Unix
// socket pair, in thread CPU time. On a shared host the CPU a fixed
// piece of work takes drifts by 15–40% within minutes as other tenants
// load the same cores, and that drift moves every CPU-bound figure of a
// run together: the client's and the server's CPU per unit of work keep
// their ratio to within 2% while both swing. The meter's readings track
// the drift, so CPU-bound figures are stated in reference-host time by
// scaling them with meterRefNs over the mean reading of the same interval
// (the timed window, or one set-up). The mean, like the
// workloads' CPU totals, counts the moments of heavy contention that a
// median would pass over. The unit is system calls because every
// workload's CPU mostly is; of the units tried (AES, a memory walk, small
// allocations, system calls), system calls tracked the workloads' drift
// best. The meter costs under 0.3% of one CPU and runs none of the
// repository's code. Load on the host lowers its reading somewhat (one
// busy CPU by about 6%, two by about 22%), so a change that cuts a
// workload's CPU gives back a small part of its gain; README.md, "The
// meter and the workload's own load", has the numbers.

const meterName = "meter"

// meterRefNs is the meter's typical reading on the reference host, a
// 2-vCPU Xeon VM, during a run: figures scaled by meterRefNs / reading
// read in that host's time.
const meterRefNs = 50000.0

const (
	meterPeriod     = 20 * time.Millisecond
	meterRoundTrips = 20
)

// meterSample is one reading: the unit's thread CPU time in ns, taken as
// the unit finished at T (Unix ns).
type meterSample struct {
	T  int64   `json:"t"`
	Ns float64 `json:"ns"`
}

type meterServer struct {
	stop    chan struct{}
	done    chan struct{}
	samples []meterSample
}

func newMeterServer() *meterServer {
	return &meterServer{stop: make(chan struct{}), done: make(chan struct{})}
}

func (m *meterServer) addrs() []string { return nil }

func (m *meterServer) start() { go m.run() }

func (m *meterServer) run() {
	defer close(m.done)
	// Thread CPU time only means something while the goroutine keeps
	// its thread; the socket pair is used with raw system calls so the
	// unit never parks in the network poller.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return
	}
	defer syscall.Close(fds[0])
	defer syscall.Close(fds[1])
	out, in := make([]byte, 1000), make([]byte, 2000)
	tick := time.NewTicker(meterPeriod)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		for range meterRoundTrips {
			if _, err := syscall.Write(fds[0], out); err != nil {
				return
			}
			if _, err := syscall.Read(fds[1], in); err != nil {
				return
			}
		}
		if t := threadCPU() - t0; t > 0 {
			m.samples = append(m.samples, meterSample{time.Now().UnixNano(), float64(t)})
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *meterServer) drain() {
	close(m.stop)
	<-m.done
}

func (m *meterServer) check(res *childResult) { res.Meter = m.samples }

func (m *meterServer) close() {}

// threadCPU returns the calling thread's CPU time in ns
// (CLOCK_THREAD_CPUTIME_ID), or 0 if the clock is unavailable.
func threadCPU() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// startMeter starts the meter process measuring.
func startMeter() (*child, error) {
	m, err := startChild(childSpec{Workload: meterName})
	if err != nil {
		return nil, err
	}
	if err := m.send("start"); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

// meterMean is the mean of the readings taken within [a, b), and whether
// there was one.
func meterMean(ms []meterSample, a, b int64) (float64, bool) {
	var sum float64
	n := 0
	for _, m := range ms {
		if m.T >= a && m.T < b {
			sum += m.Ns
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// finishMeter stops the meter and returns its readings.
func finishMeter(m *child) ([]meterSample, error) {
	var res childResult
	if err := m.finish(&res); err != nil {
		return nil, err
	}
	if len(res.Meter) == 0 {
		return nil, errors.New("the meter took no readings")
	}
	return res.Meter, nil
}
