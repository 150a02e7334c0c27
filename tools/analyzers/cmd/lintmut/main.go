// Command lintmut is the mutation-testing gate for the thriftylint
// analyzers: it seeds known violations — the exact bug classes the
// paper's invariants forbid, such as an I-frame leaving on a UDP socket
// without encryption or a mutex held across a pacing sleep — into a
// scratch copy of the root module and requires every one of them to be
// caught. A static-analysis suite that no longer fires on the bugs it
// was written for is worse than none (it certifies a broken tree as
// clean), so CI treats a surviving mutant as a build failure.
//
// Usage:
//
//	lintmut [-root moduleDir] [-quick] [-list] [-v] [-j n]
//
// -quick runs the deterministic fast subset (one mutant per analyzer
// family) used by scripts/lint.sh; CI runs the full set. Mutants are
// analyzed concurrently on a bounded worker pool (-j), each in a
// private scratch copy of the module under the system temp directory,
// so runs are order-independent; results are printed in declaration
// order, keeping the output byte-identical whatever the scheduling.
// The root module is never modified.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/tools/analyzers/lintkit"
	"repro/tools/analyzers/passes/auditemit"
	"repro/tools/analyzers/passes/bitioerr"
	"repro/tools/analyzers/passes/bufown"
	"repro/tools/analyzers/passes/cryptorand"
	"repro/tools/analyzers/passes/exhaustenum"
	"repro/tools/analyzers/passes/floateq"
	"repro/tools/analyzers/passes/ivunique"
	"repro/tools/analyzers/passes/lockheld"
	"repro/tools/analyzers/passes/lockorder"
	"repro/tools/analyzers/passes/netbound"
	"repro/tools/analyzers/passes/plainleak"
	"repro/tools/analyzers/passes/seededrand"
	"repro/tools/analyzers/passes/seqwrap"
	"repro/tools/analyzers/passes/walltime"
)

// patch is one textual substitution inside a mutant's file.
type patch struct {
	Old string
	New string
	// Occ selects the 1-based occurrence of Old when the file contains
	// it more than once; 0 requires the match to be unique.
	Occ int
}

// mutant is one seeded violation: the file edit plus the analyzer that
// must catch it. Every mutant keeps the module compiling — the gate
// tests the analyzers, not the compiler.
type mutant struct {
	ID       string
	Analyzer *lintkit.Analyzer
	File     string // path relative to the module root
	Patches  []patch
	Desc     string
	Quick    bool
}

const (
	// The zero-copy send paths encrypt the payload region of the marshaled
	// wire buffer in place.
	udpEncryptCall    = "cipher.EncryptPacket(uint64(seq), out[rtp.HeaderSize:][:s.Policy.EncryptSpan(len(payload))])"
	resumeEncryptCall = "cipher.EncryptPacket(seq, wire[segmentHeaderSize:][:s.Policy.EncryptSpan(n)])"
)

var mutants = []mutant{
	// --- plainleak: the selective-encryption invariant ---
	{
		ID: "udp-iframe-plain", Analyzer: plainleak.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\t\tif encrypted {\n\t\t\t\tt0 := time.Now()",
			New: "\t\t\tif encrypted && !wps[i].IsIFrame() {\n\t\t\t\tt0 := time.Now()",
		}},
		Desc:  "the UDP send loop skips encryption for the I-frame packets the selector marked",
		Quick: true,
	},
	{
		ID: "udp-plain", Analyzer: plainleak.Analyzer,
		File:    "internal/transport/live_udp.go",
		Patches: []patch{{Old: udpEncryptCall, New: "_ = cipher"}},
		Desc:    "the UDP send loop drops the EncryptPacket call on the selected path",
	},
	{
		ID: "resume-plain", Analyzer: plainleak.Analyzer,
		File:    "internal/transport/resume.go",
		Patches: []patch{{Old: resumeEncryptCall, New: "_ = cipher"}},
		Desc:    "the HTTP upload stores plaintext segments and its request body reads them onto the connection",
	},
	{
		ID: "udp-guard-bypass", Analyzer: plainleak.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "encrypted := selector.ShouldEncrypt(wps[i].IsIFrame())",
			New: "_ = selector\n\t\t\tencrypted := wps[i].IsIFrame()",
		}},
		Desc: "the encryption decision no longer comes from the policy selector, so plaintext sends are unsanctioned",
	},
	{
		ID: "http-guard-bypass", Analyzer: plainleak.Analyzer,
		File: "internal/transport/resume.go",
		Patches: []patch{{
			Old: "encrypted := selector.ShouldEncrypt(ef.Type == codec.IFrame)",
			New: "_ = selector\n\t\t\tencrypted := ef.Type == codec.IFrame",
		}},
		Desc: "the HTTP segment store guesses the policy instead of asking the selector",
	},

	// --- lockheld: no parking with a mutex held ---
	{
		ID: "nack-under-lock", Analyzer: lockheld.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\tr.mu.Unlock()\n\t\tfor _, out := range resend {",
			New: "\t\tfor _, out := range resend {",
		}},
		Desc:  "NACK retransmits go back to writing UDP datagrams while holding the I-frame buffer lock",
		Quick: true,
	},
	{
		ID: "pacer-under-lock", Analyzer: lockheld.Analyzer,
		File: "internal/netem/proxy.go",
		Patches: []patch{{
			Old: "\tp.mu.Lock()\n\tdefer p.mu.Unlock()\n\tif p.cutAfter <= 0 {\n\t\treturn n, false\n\t}",
			New: "\tp.mu.Lock()\n\tdefer p.mu.Unlock()\n\tif p.pacer != nil {\n\t\tp.pacer.Wait(n)\n\t}\n\tif p.cutAfter <= 0 {\n\t\treturn n, false\n\t}",
		}},
		Desc:  "the proxy budget accountant parks on Pacer.Wait with its mutex held",
		Quick: true,
	},
	{
		ID: "ibuf-defer-lock", Analyzer: lockheld.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\t\t\t\trel.mu.Lock()\n\t\t\t\t\trel.iBuf[uint64(base+i)] = out\n\t\t\t\t\trel.mu.Unlock()",
			New: "\t\t\t\t\trel.mu.Lock()\n\t\t\t\t\trel.iBuf[uint64(base+i)] = out\n\t\t\t\t\tdefer rel.mu.Unlock()",
		}},
		Desc: "the I-frame buffer lock is held until function return, across every subsequent send",
	},
	{
		ID: "nextseq-sleep", Analyzer: lockheld.Analyzer,
		File: "internal/transport/live_http.go",
		Patches: []patch{{
			Old: "\t\tsess.mu.Lock()\n\t\tdefer sess.mu.Unlock()\n\t\tv = f(&sess.rx)",
			New: "\t\tsess.mu.Lock()\n\t\tdefer sess.mu.Unlock()\n\t\ttime.Sleep(time.Millisecond)\n\t\tv = f(&sess.rx)",
		}},
		Desc: "the upload server's session reads (the ack cursor among them) sleep inside their critical section",
	},
	{
		ID: "cond-wait-nolock", Analyzer: lockheld.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tfor r.rx.received < n {",
			New: "\tfor r.rx.received < n {",
		}},
		Desc: "the receiver waiter calls cond.Wait without holding the mutex Wait is documented to require",
	},

	// --- exhaustenum: no silent fallthrough on enum growth ---
	{
		ID: "power-default-removed", Analyzer: exhaustenum.Analyzer,
		File: "internal/experiments/power.go",
		Patches: []patch{{
			Old: "\t\tdefault:\n\t\t\t// The headline comparison of Sections 1/6.3 is none vs\n\t\t\t// I-only vs full; intermediate policies (P-frames,\n\t\t\t// I+fraction-of-P, half-I) are deliberately outside this\n\t\t\t// figure and are skipped, not an accident of a new Mode.\n\t\t}",
			New: "\t\t}",
		}},
		Desc:  "the power-savings dispatch loses its reasoned default and silently skips future modes",
		Quick: true,
	},
	{
		ID: "metrics-default-removed", Analyzer: exhaustenum.Analyzer,
		File: "internal/codec/metrics.go",
		Patches: []patch{{
			Old: "\tdefault:\n\t\tmFramesEncodedB.Inc()\n\t\tmFrameBytesB.Add(int64(out.Size()))\n\t}",
			New: "\t}",
		}},
		Desc: "the per-frame counters stop counting B-frames without covering the member",
	},

	// --- walltime / floateq / bitioerr: stripping a justified
	// suppression must re-trigger the underlying finding, proving both
	// the pass and the allow plumbing still work ---
	{
		ID: "walltime-pacer", Analyzer: walltime.Analyzer,
		File: "internal/netem/netem.go",
		Patches: []patch{{
			Old: "now := time.Now() //lint:allow walltime real-socket feature: the pacer shapes live connections on the wall clock",
			New: "now := time.Now()",
		}},
		Desc:  "the pacer's wall-clock read loses its justification",
		Quick: true,
	},
	{
		ID: "walltime-proxy", Analyzer: walltime.Analyzer,
		File: "internal/netem/proxy.go",
		Patches: []patch{{
			Old: "blackout := time.Now().Before(p.downUntil) //lint:allow walltime real-socket feature: blackout windows on live TCP relays are wall-clock by design",
			New: "blackout := time.Now().Before(p.downUntil)",
		}},
		Desc: "the proxy blackout check loses its justification",
	},
	{
		ID: "floateq-boundary", Analyzer: floateq.Analyzer,
		File: "internal/stats/rng.go",
		Patches: []patch{{
			Old: "if p == 1 { //lint:allow floateq exact boundary: callers pass the literal 1.0 for a sure success",
			New: "if p == 1 {",
		}},
		Desc: "an exact float comparison loses its justification",
	},
	{
		ID: "bitioerr-status", Analyzer: bitioerr.Analyzer,
		File: "internal/transport/live_http.go",
		Patches: []patch{{
			Old: "fmt.Fprintf(w, \"ok %d next %d\\n\", count, next) //lint:allow bitioerr best-effort status body; the header already carried the answer",
			New: "fmt.Fprintf(w, \"ok %d next %d\\n\", count, next)",
		}},
		Desc: "a dropped write error loses its justification",
	},

	// --- bufown: linear ownership of pooled wire buffers ---
	{
		ID: "bufown-leak", Analyzer: bufown.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\t\tpool.Put(pkt)\n\t\t}\n\t}\n\tif rel != nil {",
			New: "\t\t}\n\t}\n\tif rel != nil {",
		}},
		Desc:  "the UDP send loop stops recycling sent packets: every iteration leaks its pooled buffer",
		Quick: true,
	},
	{
		ID: "bufown-double-put", Analyzer: bufown.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\t\t\tpool.Put(pkt)\n\t\t\t\tfor j := i + 1; j < len(wps); j++ {",
			New: "\t\t\t\tpool.Put(pkt)\n\t\t\t\tpool.Put(pkt)\n\t\t\t\tfor j := i + 1; j < len(wps); j++ {",
		}},
		Desc: "the send error path releases the same packet twice, poisoning the pool with a duplicate buffer",
	},

	// --- lockorder: one module-wide lock-acquisition order ---
	{
		ID: "lockorder-inverted", Analyzer: lockorder.Analyzer,
		File: "internal/transport/ingest.go",
		Patches: []patch{{
			Old: "\tsess.mu.Lock()\n\tif !sess.firstAt.IsZero() {",
			New: "\tsess.mu.Lock()\n\tsh.mu.Lock()\n\tsh.mu.Unlock()\n\tif !sess.firstAt.IsZero() {",
		}},
		Desc:  "finish re-acquires the shard lock under the session lock, reversing the declared shard -> session order",
		Quick: true,
	},

	// --- auditemit: every audited decision leaves a ledger record ---
	{
		ID: "auditemit-evict", Analyzer: auditemit.Analyzer,
		File: "internal/transport/ingest.go",
		Patches: []patch{{
			Old: "\t\tmIngestSessionsEvicted.Inc()\n\t\tledger.Emit(ledger.EventEvict, \"ingest\", uint64(ssrc), 0, \"idle\")",
			New: "\t\tmIngestSessionsEvicted.Inc()",
		}},
		Desc:  "idle evictions no longer write the EventEvict ledger record",
		Quick: true,
	},
	{
		ID: "auditemit-epoch", Analyzer: auditemit.Analyzer,
		File: "internal/transport/resume.go",
		Patches: []patch{{
			Old: "\t\t\t\tledger.Emit(ledger.EventReencode, \"resume\", 0, 0, oldPolicy)\n\t\t\t\tledger.Emit(ledger.EventEpoch, \"resume\", base, 0, \"\")",
			New: "\t\t\t\tledger.Emit(ledger.EventReencode, \"resume\", 0, 0, oldPolicy)",
		}},
		Desc: "re-encode restarts mint a fresh sequence epoch without the EventEpoch record",
	},

	// --- cryptorand / seededrand: randomness hygiene ---
	{
		ID: "cryptorand-mathrand", Analyzer: cryptorand.Analyzer,
		File: "internal/vcrypt/policy.go",
		Patches: []patch{
			{Old: "import (\n\t\"fmt\"\n)", New: "import (\n\t\"fmt\"\n\t\"math/rand\"\n)"},
			{Old: "\treturn s.step(&s.accP, encP)", New: "\treturn rand.Float64() < encP"},
		},
		Desc:  "P-frame packet selection samples math/rand inside the crypto layer",
		Quick: true,
	},
	{
		ID: "seededrand-global", Analyzer: seededrand.Analyzer,
		File: "internal/stats/rng.go",
		Patches: []patch{
			{Old: "import \"math\"", New: "import (\n\t\"math\"\n\t\"math/rand\"\n)"},
			{Old: "\tu := r.Float64()", New: "\tu := rand.Float64()", Occ: 1},
		},
		Desc: "an exponential deviate silently switches to the unseeded global generator",
	},

	// --- netbound: static bounds proofs on attacker-controlled integers ---
	{
		ID: "netbound-reasm-unchecked", Analyzer: netbound.Analyzer,
		File: "internal/codec/packetize.go",
		Patches: []patch{{
			Old: "\t\tif j >= len(mb) {\n\t\t\treturn\n\t\t}\n",
			New: "",
		}},
		Desc: "the reassembler's view builder indexes the frame's macroblocks with a wire-decoded offset and no local bounds proof",
	},
	{
		ID: "netbound-segment-alloc", Analyzer: netbound.Analyzer,
		File: "internal/transport/live_http.go",
		Patches: []patch{{
			Old: "\tif n > 1<<24 {\n\t\treturn 0, false, nil, fmt.Errorf(\"transport: implausible segment of %d bytes\", n)\n\t}\n",
			New: "",
		}},
		Desc: "the segment reader sizes its payload buffer from the wire length field without capping it",
	},
	{
		ID: "netbound-container-count", Analyzer: netbound.Analyzer,
		File: "internal/codec/container.go",
		Patches: []patch{{
			Old: "\tif count > 1<<20 {\n\t\treturn Config{}, nil, fmt.Errorf(\"codec: implausible frame count %d\", count)\n\t}\n",
			New: "",
		}},
		Desc:  "the container reader sizes its frame table straight from an unchecked varint",
		Quick: true,
	},
	{
		ID: "netbound-slice-trunc", Analyzer: netbound.Analyzer,
		File: "internal/codec/packetize.go",
		Patches: []patch{{
			Old: "\t\tif uint64(len(rest)) < l {\n\t\t\treturn 0, nil, fmt.Errorf(\"codec: slice truncated\")\n\t\t}\n\t\tchunks[i] = rest[:l]",
			New: "\t\tchunks[i] = rest[:l]",
		}},
		Desc: "SliceMBs slices chunk bytes by a wire length with the truncation guard removed",
	},
	{
		ID: "netbound-reasm-walk-trunc", Analyzer: netbound.Analyzer,
		File: "internal/codec/packetize.go",
		Patches: []patch{{
			Old: "\t\trest = rest[n:]\n\t\tif uint64(len(rest)) < l {\n\t\t\treturn fmt.Errorf(\"codec: slice truncated\")\n\t\t}\n\t\trest = rest[l:]",
			New: "\t\trest = rest[n:]\n\t\trest = rest[l:]",
		}},
		Desc: "the reassembler's in-place validation walk skips chunk bytes by a wire length with the truncation guard removed",
	},

	// --- seqwrap: no raw ordering arithmetic on wrapping counters ---
	{
		ID: "seqwrap-raw-compare", Analyzer: seqwrap.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: "\t\tseq64 := ext.Extend(pkt.Sequence)",
			New: "\t\tlate := pkt.Sequence > 0x8000\n\t\t_ = late\n\t\tseq64 := ext.Extend(pkt.Sequence)",
		}},
		Desc:  "the receiver orders arrivals by raw 16-bit sequence, which inverts at every wrap",
		Quick: true,
	},

	// --- ivunique: the cipher IV must ride the extended 64-bit sequence ---
	{
		ID: "ivunique-truncated-iv", Analyzer: ivunique.Analyzer,
		File: "internal/transport/live_udp.go",
		Patches: []patch{{
			Old: udpEncryptCall,
			New: "cipher.EncryptPacket(uint64(uint16(seq)), out[rtp.HeaderSize:][:s.Policy.EncryptSpan(len(payload))])",
		}},
		Desc:  "the UDP sender truncates its IV counter to 16 bits before widening it back: keystream reuse every 65536 packets",
		Quick: true,
	},
}

// gateAnalyzers is the union of analyzers the mutants target: the
// pristine copy must be clean under all of them before mutation starts.
func gateAnalyzers() []*lintkit.Analyzer {
	seen := map[*lintkit.Analyzer]bool{}
	var out []*lintkit.Analyzer
	for _, m := range mutants {
		if !seen[m.Analyzer] {
			seen[m.Analyzer] = true
			out = append(out, m.Analyzer)
		}
	}
	return out
}

func main() {
	root := flag.String("root", ".", "directory of the module to mutate")
	quick := flag.Bool("quick", false, "run only the fast per-family subset")
	list := flag.Bool("list", false, "list the mutants and exit")
	verbose := flag.Bool("v", false, "print per-mutant findings")
	jobs := flag.Int("j", defaultJobs(), "mutants analyzed concurrently")
	flag.Parse()
	if *list {
		for _, m := range mutants {
			q := " "
			if m.Quick {
				q = "q"
			}
			fmt.Printf("%s %-24s %-12s %s\n", q, m.ID, m.Analyzer.Name, m.Desc)
		}
		return
	}
	if err := run(*root, *quick, *verbose, *jobs, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lintmut:", err)
		os.Exit(1)
	}
}

// defaultJobs bounds the worker pool: each in-flight mutant holds a
// full type-checked copy of the module in memory, so the pool is capped
// below the core count on very wide machines.
func defaultJobs() int {
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// run copies the module once and verifies the pristine copy is clean,
// then fans the selected mutants out over a bounded worker pool — each
// mutant gets a private scratch copy of the pristine tree — and
// requires every mutant's analyzer to fire. Results are reported in
// declaration order regardless of which worker finishes first.
func run(root string, quick, verbose bool, jobs int, out io.Writer) error {
	selected := mutants
	if quick {
		selected = nil
		for _, m := range mutants {
			if m.Quick {
				selected = append(selected, m)
			}
		}
	}
	if jobs < 1 {
		jobs = 1
	}

	pristineDir, err := copyModule(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(pristineDir)

	pristine, err := analyze(pristineDir, gateAnalyzers())
	if err != nil {
		return err
	}
	if len(pristine) > 0 {
		for _, d := range pristine {
			fmt.Fprintln(out, d)
		}
		return fmt.Errorf("pristine module has %d finding(s); fix the tree before mutation testing", len(pristine))
	}

	type result struct {
		diags []lintkit.Diagnostic
		err   error
	}
	results := make([]result, len(selected))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i := range selected {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			diags, err := runMutant(pristineDir, selected[i])
			results[i] = result{diags: diags, err: err}
		}(i)
	}
	wg.Wait()

	survived := 0
	for i, m := range selected {
		r := results[i]
		if r.err != nil {
			return fmt.Errorf("%s: %w", m.ID, r.err)
		}
		if len(r.diags) == 0 {
			fmt.Fprintf(out, "SURVIVED %-24s %-12s %s\n", m.ID, m.Analyzer.Name, m.Desc)
			survived++
			continue
		}
		fmt.Fprintf(out, "killed   %-24s %-12s %d finding(s)\n", m.ID, m.Analyzer.Name, len(r.diags))
		if verbose {
			for _, d := range r.diags {
				fmt.Fprintln(out, "  ", d)
			}
		}
	}
	fmt.Fprintf(out, "lintmut: %d/%d mutants killed\n", len(selected)-survived, len(selected))
	if survived > 0 {
		return fmt.Errorf("%d mutant(s) survived: the analyzers no longer catch the bug classes they gate", survived)
	}
	return nil
}

// runMutant copies the verified pristine tree into a private scratch
// directory, applies one mutant and runs its analyzer. Full isolation
// keeps mutants order-independent and safe to run concurrently; the
// scratch copy is discarded rather than restored.
func runMutant(pristineDir string, m mutant) ([]lintkit.Diagnostic, error) {
	scratch, err := copyModule(pristineDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	path := filepath.Join(scratch, filepath.FromSlash(m.File))
	orig, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	mutated, err := applyPatches(string(orig), m.Patches)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.File, err)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		return nil, err
	}
	diags, err := analyze(scratch, []*lintkit.Analyzer{m.Analyzer})
	if err != nil {
		return nil, fmt.Errorf("mutated module no longer analyzes (mutant must keep the tree type-checking): %w", err)
	}
	return diags, nil
}

// analyze loads the module at dir and runs the given analyzers.
func analyze(dir string, analyzers []*lintkit.Analyzer) ([]lintkit.Diagnostic, error) {
	pkgs, err := lintkit.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return lintkit.RunAnalyzers(pkgs, analyzers)
}

// applyPatches performs each substitution, enforcing the occurrence
// contract so a refactor that duplicates the anchor text fails loudly
// instead of mutating the wrong site.
func applyPatches(src string, patches []patch) (string, error) {
	for _, p := range patches {
		n := strings.Count(src, p.Old)
		switch {
		case n == 0:
			return "", fmt.Errorf("anchor %q not found (the code moved; update the mutant)", firstLine(p.Old))
		case p.Occ == 0 && n > 1:
			return "", fmt.Errorf("anchor %q matches %d times; set Occ", firstLine(p.Old), n)
		case p.Occ > n:
			return "", fmt.Errorf("anchor %q matches %d times, want occurrence %d", firstLine(p.Old), n, p.Occ)
		}
		occ := p.Occ
		if occ == 0 {
			occ = 1
		}
		idx := -1
		for i := 0; i < occ; i++ {
			next := strings.Index(src[idx+1:], p.Old)
			if next < 0 {
				return "", fmt.Errorf("anchor %q vanished mid-apply", firstLine(p.Old))
			}
			idx += 1 + next
		}
		src = src[:idx] + p.New + src[idx+len(p.Old):]
	}
	return src, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + "..."
	}
	return s
}

// copyModule copies the root module's sources into a scratch directory:
// go.mod/go.sum plus every .go file outside .git and the separate
// tools module.
func copyModule(root string) (string, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(absRoot, "go.mod")); err != nil {
		return "", fmt.Errorf("%s is not a module root: %w", absRoot, err)
	}
	scratch, err := os.MkdirTemp("", "lintmut-")
	if err != nil {
		return "", err
	}
	err = filepath.WalkDir(absRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(absRoot, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || rel == "tools" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		base := d.Name()
		if !strings.HasSuffix(base, ".go") && base != "go.mod" && base != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dst := filepath.Join(scratch, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		os.RemoveAll(scratch)
		return "", err
	}
	return scratch, nil
}
