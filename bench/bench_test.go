package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain re-executes the test binary as the server process, the way
// the command re-executes itself.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(serve(spec))
	}
	// A race-enabled child otherwise sleeps a second on exit, and every
	// workload starts six of them (a server per set-up, and the meter).
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 98}, {500, 98}, {499, 95}, {100, 90}, {99, 50}, {0, 50}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 98: 98, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

// The quartiles must be Python's statistics.quantiles(n=4), the
// definition the spread of a benchmark metric is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, [3]float64{2.15, 4.4, 7.45}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

// One late first wake-up must not shift any other frame's latency: the
// anchor is the earliest release seen over all frames, not frame 0's.
func TestFrameLatencyMinAnchored(t *testing.T) {
	const period = 1e9 / fps
	origin := int64(7e9)
	n := 10
	first, done := make([]int64, n), make([]int64, n)
	for f := range first {
		first[f] = origin + int64(float64(f)*period) + 200_000 // 0.2 ms wake-up slack
		done[f] = first[f] + 100_000                           // 0.1 ms to deliver
	}
	first[0] += 5_000_000 // frame 0's wake-up came 5 ms late
	done[0] += 5_000_000
	done[4] = -1 // frame 4 never completed
	lat, slack := frameLatencies(first, done, fps)
	if len(lat) != n-1 || len(slack) != n-1 {
		t.Fatalf("got %d latencies, want %d (the incomplete frame skipped)", len(lat), n-1)
	}
	if math.Abs(lat[0]-5.1) > 1e-6 {
		t.Errorf("late frame latency %g ms, want 5.1", lat[0])
	}
	for i, l := range lat[1:] {
		if math.Abs(l-0.1) > 1e-6 || math.Abs(slack[i+1]) > 1e-6 {
			t.Errorf("frame latency %g ms, slack %g ms; want 0.1 and 0", l, slack[i+1])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Layer: lParse},
		{ID: 2, Parent: 1, Start: 10, End: 30, Layer: lRead},
		{ID: 3, Parent: 1, Start: 20, End: 50, Layer: lRead},    // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120, Layer: lRead},   // runs past its parent
		{ID: 5, Parent: 0, Start: 200, End: 210, Layer: lParse}, // a second root
	}
	self := selfTimes(spans, overhead{})
	if self[lParse] != 50+10 || self[lRead] != 20+30+30 {
		t.Errorf("self parse %g read %g, want 60 and 80", self[lParse], self[lRead])
	}
	// Recording cost comes off the span it lands in: each span's own,
	// and the gap around every child.
	self = selfTimes(spans, overhead{inside: 1, gap: 2})
	if self[lParse] != (50-1-3*2)+(10-1) || self[lRead] != 80-3 {
		t.Errorf("corrected self parse %g read %g, want 52 and 77", self[lParse], self[lRead])
	}
}

func TestSharesAndUnattributed(t *testing.T) {
	got, rest := shares(map[string]float64{"a": 2e6, "b": 1e6}, 2, 3e6)
	if math.Abs(got["a"]-1.0/3) > 1e-12 || math.Abs(got["b"]-1.0/6) > 1e-12 || math.Abs(rest-0.5) > 1e-12 {
		t.Errorf("shares = %v, unattributed %g; want a 1/3, b 1/6, rest 1/2", got, rest)
	}
	// A replay that costs more than the timed run leaves a negative
	// remainder rather than hiding the mismatch.
	if _, rest := shares(map[string]float64{"a": 4e6}, 1, 3e6); rest >= 0 {
		t.Errorf("unattributed %g, want negative", rest)
	}
}

func TestFailedAccounting(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int
		want              float64
	}{{100, 0, 0}, {100, 5, 0.05}, {0, 0, 1}} {
		if got := failedFrac(c.attempted, c.failed); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %g, want %g", c.attempted, c.failed, got, c.want)
		}
	}
	for _, c := range []struct{ uploads, errs, acked, sampleBad, want int }{
		{100, 0, 100, 0, 0},
		{100, 2, 98, 0, 2}, // errored uploads are the unacknowledged ones
		{100, 0, 97, 0, 3}, // returned nil but the server did not finish
		{100, 1, 98, 0, 2},
		{100, 0, 100, 1, 1}, // acknowledged, but the bytes differ
	} {
		if got := uploadFailures(c.uploads, c.errs, c.acked, c.sampleBad); got != c.want {
			t.Errorf("uploadFailures%v = %d, want %d", c, got, c.want)
		}
	}
}

// Each set-up is scaled by the meter's readings taken while it ran.
func TestSetupTimes(t *testing.T) {
	const sec = int64(time.Second)
	setups := [][2]int64{{0, 2 * sec}, {2 * sec, 3 * sec}, {3 * sec, 5 * sec}}
	ms := []meterSample{{sec, meterRefNs * 2}, {2*sec + sec/2, meterRefNs}, {4 * sec, meterRefNs}}
	scaled, raw := setupTimes(setups, ms)
	// Scaled: 2 s at half speed is 1 s; then 1 s and 2 s. Unscaled: 2, 1, 2.
	if scaled != 1 || raw != 2 {
		t.Errorf("setup %g s scaled, %g s unscaled; want 1 and 2", scaled, raw)
	}
}

// A host stall sets aside the frames sent catching up after it, until
// the generator sleeps again; lateness outside stalls is sampled.
func TestLatenessSeparatesStalls(t *testing.T) {
	var l lateness
	l.slept(1.000)
	l.sent(1.001, 1.000, true)  // woke 1 ms late
	l.sent(1.002, 1.0005, true) // the burst goes on
	l.sent(1.020, 1.001, true)  // 18 ms without running: a stall
	l.sent(1.021, 1.010, true)  // still its backlog
	l.sent(1.022, 1.015, false) // a FIN in the backlog counts no frame
	l.slept(1.030)
	l.sent(1.031, 1.030, true)
	l.slept(1.040)
	l.sent(1.050, 1.040, true) // woke 10 ms late: another stall
	if l.stalls != 2 || l.stallFrames != 3 || len(l.late) != 3 {
		t.Fatalf("stalls %d, backlog frames %d, samples %d; want 2, 3, 3", l.stalls, l.stallFrames, len(l.late))
	}
	for i, want := range []float64{1, 1.5, 1} {
		if math.Abs(l.late[i]-want) > 1e-9 {
			t.Errorf("lateness %d = %g ms, want %g", i, l.late[i], want)
		}
	}
	if math.Abs(l.stallFrac()-0.5) > 1e-12 {
		t.Errorf("stall fraction %g, want 0.5", l.stallFrac())
	}
}

func TestScheduleDeterministicAndWellFormed(t *testing.T) {
	const frames, seconds = 60, 10.0
	ts, ev := schedule(7, frames, seconds)
	ts2, ev2 := schedule(7, frames, seconds)
	if len(ts) != len(ts2) || len(ev) != len(ev2) || ts[0] != ts2[0] || ev[len(ev)/2] != ev2[len(ev2)/2] {
		t.Fatal("the same seed gave different schedules")
	}
	if other, _ := schedule(8, frames, seconds); other[0] == ts[0] {
		t.Error("another seed gave the same first tenant")
	}
	ssrcs := make(map[uint32]bool)
	restarts, wit := 0, 0
	for _, tn := range ts {
		if ssrcs[tn.ssrc] {
			t.Fatalf("SSRC %d used twice", tn.ssrc)
		}
		ssrcs[tn.ssrc] = true
		if tn.restart {
			restarts++
		}
		if tn.witness {
			wit++
			end := tn.start + frames/fps
			if tn.restart || tn.start < 0 || end > seconds || end < seconds-idleTimeout.Seconds() {
				t.Errorf("witness %+v cannot be checked whole before eviction", tn)
			}
		}
	}
	if want := int(tenantRate * (frames/fps + seconds)); len(ts) != want {
		t.Errorf("%d tenants, want %d", len(ts), want)
	}
	if wit != witnesses {
		t.Errorf("%d witnesses, want %d", wit, witnesses)
	}
	if want := int(restartFrac * tenantRate * seconds); restarts != want {
		t.Errorf("%d restarts, want %d", restarts, want)
	}
	for i, e := range ev {
		if e.due < 0 || e.due >= seconds || (i > 0 && e.due < ev[i-1].due) {
			t.Fatalf("event %d due %g out of order or outside the window", i, e.due)
		}
		if e.frame == finFrame && ts[e.tenant].witness {
			t.Fatal("a witness sends FIN")
		}
	}
}

// tiny is a small clip so every workload runs end to end in about a
// second, child processes included.
var tiny = geometry{96, 96, 30}

func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(params{seed: 3, seconds: 1.5, out: t.TempDir(), trace: true, geom: tiny})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range r.Gates {
				if !g.OK {
					t.Errorf("gate %q failed: %s", g.Name, g.Detail)
				}
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			for _, ms := range [][]metric{endToEnd, perLayer} {
				for _, m := range ms {
					v, ok := r.Metrics[m.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v, present %v", m.name, v, ok)
					}
				}
			}
			for _, m := range endToEnd {
				if r.Metrics[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.name, r.Metrics[m.name])
				}
			}
			if len(r.spans) == 0 {
				t.Error("the traced replay recorded no spans")
			}
		})
	}
}

// BENCHMARK.json at the repository root must name exactly the metrics
// and workloads the command reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	type entry struct{ Name, Unit string }
	var f struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		file []entry
		code []metric
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.kind, len(c.file), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.file[i].Name != m.name || c.file[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", c.kind, i, c.file[i].Name, c.file[i].Unit, m.name, m.unit)
			}
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, f.Workloads[i].Name, w.name)
		}
	}
}
