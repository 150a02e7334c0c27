// Command thriftybench measures the live pipeline end to end on
// loopback. The bench process plays the phones: it runs the system's
// own senders (the CLI defaults LiveUDPSend, paced, and
// ResumableHTTPUpload) or a seeded multi-tenant generator, and
// re-executes itself as a second process that plays the server
// (LiveReceiver, HTTPUploadServer or IngestServer), so client and server
// CPU are measured apart. A traced replay then times each layer's
// public functions from outside and reconciles them with the end-to-end
// CPU. README.md is the metric and workload reference.
//
// Usage:
//
//	go run . [-seed n] [-workload name] [-seconds s] [-trace 0|1] [-runs n] [-out dir]
//
// It prints "metric workload value unit" for every metric, writes
// summary.json and trace.json to -out, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}, holding the end-to-end
// metrics with -trace 0 and the per-layer metrics with -trace 1. It
// exits 3 when a correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

type workload struct {
	name string
	run  func(params) (*result, error)
}

var workloads = []workload{
	{streamName, runStream},
	{uploadName, runUpload},
	{ingestName, runIngest},
}

// metric is one reported quantity. Only the end-to-end and per-layer
// metrics are listed in BENCHMARK.json; the rest are printed and kept in
// summary.json as diagnostics.
type metric struct{ name, unit string }

// endToEnd metrics are what a user of the system sees, and every
// workload reports each one: set-up time, client CPU per MB of video
// payload delivered (the paper's energy axis), server CPU per
// first-delivery packet, and server memory. Times spent computing are in
// reference-host time (see meter.go). Latency is a diagnostic: ingest has
// none to measure from outside (IngestServer answers nothing on the
// happy path), and every listed metric must come from every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"client_cpu_ms_per_mb", "ms/MB"},
	{"server_cpu_us_per_pkt", "us"},
	{"server_retained_mb", "MB"},
}

// perLayer metrics come from the timed window (runtime/metrics read in
// each process) and from the traced replay. Every workload reports each
// one.
var perLayer = []metric{
	{"codec.encode.ns_per_frame", "ns"},
	{"codec.decode.ns_per_frame", "ns"},
	{"codec.packetize.ns_per_pkt", "ns"},
	{"vcrypt.select.ns_per_pkt", "ns"},
	{"transport.frame.ns_per_pkt", "ns"},
	{"vcrypt.encrypt.ns_per_pkt", "ns"},
	{"vcrypt.keystream.ns_per_pkt", "ns"},
	{"transport.socket_write.ns_per_call", "ns"},
	{"transport.socket_read.ns_per_call", "ns"},
	{"transport.parse.ns_per_pkt", "ns"},
	{"vcrypt.decrypt.ns_per_pkt", "ns"},
	{"codec.reassemble.ns_per_pkt", "ns"},
	{"codec.reassemble.allocs_per_pkt", "count"},
	{"ledger.emit_off.ns_per_call", "ns"},
	{"runtime.client.allocs_per_mb", "count"},
	{"runtime.server.allocs_per_pkt", "count"},
	{"runtime.server.gc_cpu_frac", "fraction"},
	{"client.packetize.share", "fraction"},
	{"client.select.share", "fraction"},
	{"client.frame.share", "fraction"},
	{"client.encrypt.share", "fraction"},
	{"client.socket_write.share", "fraction"},
	{"server.socket_read.share", "fraction"},
	{"server.parse.share", "fraction"},
	{"server.decrypt.share", "fraction"},
	{"server.reassemble.share", "fraction"},
	{"unattributed.client_frac", "fraction"},
	{"unattributed.server_frac", "fraction"},
}

// diagnostics are workload-specific numbers with their units.
var diagnostics = map[string]string{
	"latency.p50_ms":                       "ms",
	"latency.p90_ms":                       "ms",
	"latency.samples":                      "count",
	"server.peak_rss_mb":                   "MB",
	"gen.stalls":                           "count",
	"gen.stall_frac":                       "fraction",
	"latency.tail_pct":                     "pct",
	"latency.tail_ms":                      "ms",
	"raw.setup_s":                          "s",
	"raw.client_cpu_ms_per_mb":             "ms/MB",
	"raw.server_cpu_us_per_pkt":            "us",
	"meter.unit_ns":                        "ns",
	"failed_frac":                          "fraction",
	"pacing.slack_p50_ms":                  "ms",
	"pacing.slack_p99_ms":                  "ms",
	"eavesdropper.psnr_db":                 "dB",
	"transport.udp.encrypted_frac":         "fraction",
	"transport.udp.crypto_us_per_pkt":      "us",
	"upload.mb_per_s":                      "MB/s",
	"transport.http.attempts_per_upload":   "count",
	"gen.late_p99_ms":                      "ms",
	"gen.cpu_us_per_pkt":                   "us",
	"transport.ingest.dup_frac":            "fraction",
	"transport.ingest.usable_frac":         "fraction",
	"transport.ingest.sessions_started":    "count",
	"transport.ingest.sessions_evicted":    "count",
	"transport.ingest.bad_pkts":            "count",
	"transport.socket_write.calls_per_pkt": "count",
	"transport.socket_read.calls_per_pkt":  "count",
	"runtime.client.gc_cpu_frac":           "fraction",
	"trace.span_inside_ns":                 "ns",
	"trace.span_gap_ns":                    "ns",
}

func unitOf(name string) string {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		for _, m := range ms {
			if m.name == name {
				return m.unit
			}
		}
	}
	return diagnostics[name]
}

// gate is one correctness check.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is one workload run.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Gates     []gate             `json:"gates"`
	Metrics   map[string]float64 `json:"metrics"`
	Latency   []float64          `json:"latency_ms,omitempty"` // every latency sample of the window
	spans     []span
}

func newResult(workload string, seed uint64) *result {
	return &result{Workload: workload, Seed: seed, Metrics: make(map[string]float64)}
}

// set records a metric. A value that is not finite (a percentile of no
// samples, a ratio over nothing) is a failed measurement: it fails a
// gate and is recorded as -1, since JSON cannot carry it.
func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.gate("every metric measured", false, "%s is %v", name, v)
		v = -1
	}
	r.Metrics[name] = v
}

func (r *result) gate(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, g := range r.Gates {
		if !g.OK {
			return false
		}
	}
	return r.Failed == 0
}

// setCommon sets the end-to-end metrics of the timed window and the
// per-process runtime metrics. Set-up time and CPU time are spent
// computing, so they are scaled to the reference host by the meter (see
// meter.go); the unscaled values stay as raw.*. mb is the video payload
// delivered and pkts the first-delivery packets the server handled.
func (r *result) setCommon(m *measured, mb float64, pkts int) {
	client, server := m.client, m.server.Window
	scale := meterRefNs / m.meterNs
	clientCPU := float64(client.CPUNs) / 1e6 / mb
	serverCPU := float64(server.CPUNs) / 1e3 / float64(pkts)
	r.set("setup_s", m.setupS)
	r.set("client_cpu_ms_per_mb", clientCPU*scale)
	r.set("server_cpu_us_per_pkt", serverCPU*scale)
	r.set("server_retained_mb", float64(m.server.RetainedKB)*1024/1e6)
	r.set("server.peak_rss_mb", float64(server.MaxRSSKB)*1024/1e6)
	r.set("raw.setup_s", m.rawSetupS)
	r.set("raw.client_cpu_ms_per_mb", clientCPU)
	r.set("raw.server_cpu_us_per_pkt", serverCPU)
	r.set("meter.unit_ns", m.meterNs)
	r.set("runtime.client.allocs_per_mb", float64(client.Allocs)/mb)
	r.set("runtime.client.gc_cpu_frac", client.GCFrac)
	r.set("runtime.server.allocs_per_pkt", float64(server.Allocs)/float64(pkts))
	r.set("runtime.server.gc_cpu_frac", server.GCFrac)
	r.set("failed_frac", failedFrac(r.Attempted, r.Failed))
}

// setLatency sets the latency diagnostics of a workload that measures
// latency: stream_paced per frame, upload_http per upload.
func (r *result) setLatency(lat []float64) {
	r.Latency = lat
	r.set("latency.p50_ms", percentile(lat, 50))
	r.set("latency.p90_ms", percentile(lat, tailPct))
	r.set("latency.samples", float64(len(lat)))
	if hi := highestPercentile(len(lat)); hi > tailPct {
		r.set("latency.tail_pct", hi)
		r.set("latency.tail_ms", percentile(lat, hi))
	}
}

// addLayers sets the per-layer metrics of a traced replay, including
// each layer's share of its side's end-to-end CPU from the timed window.
func (r *result) addLayers(c *clip, rp *replay) {
	self := selfTimes(rp.spans, rp.oh)
	per := func(ns float64, n int) float64 { return ns / float64(max(n, 1)) }
	r.set("codec.encode.ns_per_frame", c.encodeNs)
	r.set("codec.decode.ns_per_frame", rp.decodeNs)
	r.set("codec.packetize.ns_per_pkt", per(self[lPacketize], rp.sent))
	r.set("vcrypt.select.ns_per_pkt", per(self[lSelect], rp.sent))
	r.set("transport.frame.ns_per_pkt", per(self[lFrame], rp.sent))
	r.set("vcrypt.encrypt.ns_per_pkt", per(self[lEncrypt], rp.encrypted))
	r.set("vcrypt.keystream.ns_per_pkt", per(self[lPrefetch]+self[lEncrypt], rp.encrypted))
	r.set("transport.socket_write.ns_per_call", per(self[lWrite], rp.writes))
	r.set("transport.socket_read.ns_per_call", per(self[lRead], rp.reads))
	r.set("transport.parse.ns_per_pkt", per(self[lParse], rp.recv))
	r.set("vcrypt.decrypt.ns_per_pkt", per(self[lDecrypt], rp.decrypted))
	r.set("codec.reassemble.ns_per_pkt", per(self[lReassemble], rp.recv))
	r.set("codec.reassemble.allocs_per_pkt", rp.reassembleAllocs)
	r.set("ledger.emit_off.ns_per_call", rp.emitOffNs)
	r.set("transport.socket_write.calls_per_pkt", float64(rp.writes)/float64(max(rp.sent, 1)))
	r.set("transport.socket_read.calls_per_pkt", float64(rp.reads)/float64(max(rp.recv, 1)))
	r.set("trace.span_inside_ns", rp.oh.inside)
	r.set("trace.span_gap_ns", rp.oh.gap)

	group := func(layers []layer) float64 {
		var ns float64
		for _, l := range layers {
			ns += self[l]
		}
		return ns
	}
	client := make(map[string]float64)
	for _, g := range clientLayers {
		client[g.metric] = group(g.layers)
	}
	shareOf, rest := shares(client, float64(rp.payload)/1e6, r.Metrics["raw.client_cpu_ms_per_mb"]*1e6)
	for k, v := range shareOf {
		r.set(k, v)
	}
	r.set("unattributed.client_frac", rest)
	server := make(map[string]float64)
	for _, g := range serverLayers {
		server[g.metric] = group(g.layers)
	}
	shareOf, rest = shares(server, float64(rp.recv), r.Metrics["raw.server_cpu_us_per_pkt"]*1e3)
	for k, v := range shareOf {
		r.set(k, v)
	}
	r.set("unattributed.server_frac", rest)
	r.spans = rp.spans
}

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(serve(spec))
	}
	var o options
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: scene, keys, schedules and samples")
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of each timed window in seconds")
	flag.IntVar(&o.trace, "trace", 1, "1: follow each timed window with the traced per-layer replay; 0: end to end only")
	flag.IntVar(&o.runs, "runs", 1, "repeat each workload with seeds seed..seed+runs-1 and report median and quartiles")
	flag.StringVar(&o.out, "out", "", "directory for summary.json and trace.json (default: a new temporary directory)")
	flag.Parse()
	os.Exit(run(o))
}

type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    int
	runs     int
	out      string
}

func run(o options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "thriftybench:", err)
		return 1
	}
	var selected []workload
	var names []string
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
			names = append(names, w.name)
		}
	}
	switch {
	case len(selected) == 0:
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	case o.trace != 0 && o.trace != 1:
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	case o.runs < 1 || o.seconds <= 0:
		return fail(fmt.Errorf("-runs and -seconds must be positive"))
	}
	if o.out == "" {
		dir, err := os.MkdirTemp("", "thriftybench-")
		if err != nil {
			return fail(err)
		}
		o.out = dir
	} else if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fail(err)
	}
	var results []*result
	for i := 0; i < o.runs; i++ {
		for _, w := range selected {
			p := params{seed: o.seed + uint64(i), seconds: o.seconds, out: o.out, trace: o.trace == 1, geom: cif}
			r, err := w.run(p)
			if err != nil {
				return fail(err)
			}
			printResult(r)
			// trace.json keeps each workload's latest replay only.
			for _, prev := range results {
				if prev.Workload == r.Workload {
					prev.spans = nil
				}
			}
			results = append(results, r)
		}
	}
	listed := endToEnd
	if o.trace == 1 {
		listed = perLayer
	}
	stable := stability(results, names, listed)
	if err := writeSummary(filepath.Join(o.out, "summary.json"), o, results, stable); err != nil {
		return fail(err)
	}
	if o.trace == 1 {
		if err := writeTrace(filepath.Join(o.out, "trace.json"), results); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintln(os.Stderr, "thriftybench: wrote", o.out)
	line := lastLine(results, names, listed, stable)
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 3
	}
	return 0
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %s %s %s\n", k, r.Workload, strconv.FormatFloat(r.Metrics[k], 'g', -1, 64), unitOf(k))
	}
	for _, g := range r.Gates {
		status := "ok"
		if !g.OK {
			status = "FAIL"
		}
		fmt.Printf("gate %s %s: %s (%s)\n", r.Workload, status, g.Name, g.Detail)
	}
}

// spread is one metric's distribution across runs with different seeds.
type spread struct {
	Q1, Median, Q3 float64
	Spread         float64 // (Q3 - Q1) / Median
	Bound          float64 // from BENCHMARK.json; 0 when absent
}

// stability summarises each listed metric across runs, per workload,
// and flags a spread wider than the metric's bound in BENCHMARK.json.
func stability(results []*result, names []string, listed []metric) map[string]map[string]spread {
	bounds := readBounds()
	out := make(map[string]map[string]spread)
	for _, w := range names {
		out[w] = make(map[string]spread)
		for _, m := range listed {
			var xs []float64
			for _, r := range results {
				if r.Workload == w {
					xs = append(xs, r.Metrics[m.name])
				}
			}
			var s spread
			s.Q1, s.Median, s.Q3 = quartiles(xs)
			if s.Median != 0 {
				s.Spread = math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
			}
			s.Bound = bounds[m.name]
			out[w][m.name] = s
			if len(xs) > 1 {
				flag := ""
				if s.Bound > 0 && s.Spread > s.Bound {
					flag = " WIDER THAN BOUND"
				}
				fmt.Printf("stability %s %s median %g q1 %g q3 %g spread %.4f bound %g%s\n", m.name, w, s.Median, s.Q1, s.Q3, s.Spread, s.Bound, flag)
			}
		}
	}
	return out
}

// readBounds reads the end-to-end bounds from BENCHMARK.json at the
// repository root, run from there or from this directory.
func readBounds() map[string]float64 {
	bounds := make(map[string]float64)
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var f struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if json.Unmarshal(b, &f) == nil {
			for _, m := range f.EndToEnd {
				bounds[m.Name] = m.Bound
			}
		}
		break
	}
	return bounds
}

func writeSummary(path string, o options, results []*result, stable map[string]map[string]spread) error {
	b, err := json.MarshalIndent(struct {
		Seed      uint64                       `json:"seed"`
		Seconds   float64                      `json:"seconds"`
		Runs      int                          `json:"runs"`
		Results   []*result                    `json:"results"`
		Stability map[string]map[string]spread `json:"stability"`
	}{o.seed, o.seconds, o.runs, results, stable}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// lastLine is the last line of output. With one workload the metric
// names are bare; with several each is prefixed "workload/". With
// several runs each value is the median.
func lastLine(results []*result, names []string, listed []metric, stable map[string]map[string]spread) resultLine {
	line := resultLine{Correct: true, Metrics: make(map[string]valueUnit)}
	for _, r := range results {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	for _, w := range names {
		for _, m := range listed {
			key := m.name
			if len(names) > 1 {
				key = w + "/" + m.name
			}
			line.Metrics[key] = valueUnit{stable[w][m.name].Median, m.unit}
		}
	}
	return line
}
