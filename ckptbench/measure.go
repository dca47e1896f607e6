package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"numarck/internal/fputil"
	"numarck/internal/obs"
)

// env is one set-up workload: its generated inputs and the program
// under test, ready to run rounds.
type env interface {
	// round runs round r of phase p. Every round is the same work on a
	// fresh tenant or store, so a run's figures do not depend on how
	// many rounds fit in it.
	round(p *phase, r int) error
	// close releases everything the set-up opened. It is idempotent.
	close() error
}

// workloadSpec builds a workload's env at a given size.
type workloadSpec struct {
	setup func(seed int64, root string, sz sizes) (env, error)
	sizes sizes
}

// sizes are a workload's input dimensions; tests shrink them.
type sizes struct {
	// tiles is how many shifted copies of the 12,960-point climate grid
	// make one long-chain state.
	tiles int
	// chain is the long-chain workload's iterations per series per
	// round: one full, then deltas.
	chain int
	// blocks and libIters are the library workload's FLASH block grid
	// side and iterations per round (one full, then deltas).
	blocks, libIters int
	// minOps is the least number of commits and of restarts a phase
	// records before it may end.
	minOps int
}

// workloads maps each workload name to its spec at benchmark size.
var workloads = map[string]workloadSpec{
	"daemon-long-chain": {setup: setupLongChain, sizes: sizes{tiles: 8, chain: 24, minOps: minOps}},
	"library-insitu":    {setup: setupLibrary, sizes: sizes{blocks: 9, libIters: 24, minOps: minOps}},
}

// Operation kinds, for the attempted/failed accounting.
const (
	opCommit = iota
	opResumable
	opRestart
	numOps
)

var opNames = [numOps]string{"commit", "resumable_commit", "restart"}

// checkError is a failed output check, as opposed to a failed call.
type checkError struct{ err error }

// Error renders the failed check.
func (e *checkError) Error() string { return "check failed: " + e.err.Error() }

// Unwrap exposes the cause.
func (e *checkError) Unwrap() error { return e.err }

// checkFailed wraps a checker's error so measure reports it as a wrong
// output.
func checkFailed(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

// phase accumulates one measured phase: operation outcomes, latency
// samples, byte and error totals, and, when traced, the layer spans.
// Its methods are safe for concurrent use.
type phase struct {
	tag    string
	traced bool

	mu        sync.Mutex
	attempted [numOps]int
	failed    [numOps]int
	commitMs  []float64
	restartMs []float64
	// fastestMs are restart samples that are each the fastest of
	// repeated calls (see timedRestart); they are not corrected for
	// steal.
	fastestMs []float64
	rawBytes  int64
	stored    int64
	errMax    float64
	// timedMs is the timed phase: the sum of the latency samples, that
	// is the time spent in the rounds' operations, without set-up,
	// checks, or traced-only shadow work.
	timedMs float64

	// Where the current round's samples start, so the round can be
	// corrected for stolen CPU time when it ends; factors holds every
	// round's correction.
	markCommit, markRestart int
	factors                 []float64

	lay *layers
}

// newPhase returns an empty phase; traced phases carry layer spans.
func newPhase(tag string, traced bool) *phase {
	p := &phase{tag: tag, traced: traced}
	if traced {
		p.lay = newLayers()
	}
	return p
}

// commit records one commit call of kind op that took d and carried
// raw state bytes.
func (p *phase) commit(op int, d time.Duration, raw int64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted[op]++
	if err != nil {
		p.failed[op]++
		return
	}
	p.commitMs = append(p.commitMs, ms(d))
	p.rawBytes += raw
}

// restart records one restart call that took d.
func (p *phase) restart(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted[opRestart]++
	if err != nil {
		p.failed[opRestart]++
		return
	}
	p.restartMs = append(p.restartMs, ms(d))
}

// restartFastest records one restart whose sample d is the fastest of
// repeated calls (see timedRestart). The repeats filter out the stolen
// and preempted calls, so the round's steal correction leaves d alone.
func (p *phase) restartFastest(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted[opRestart]++
	if err != nil {
		p.failed[opRestart]++
		return
	}
	p.fastestMs = append(p.fastestMs, ms(d))
	p.timedMs += ms(d)
}

// verified records a round's checked outcome: the on-disk chain bytes
// and the largest relative restart error seen.
func (p *phase) verified(stored int64, errMax float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stored += stored
	p.errMax = math.Max(p.errMax, errMax)
}

// markRound notes where the next round's samples start.
func (p *phase) markRound() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.markCommit, p.markRestart = len(p.commitMs), len(p.restartMs)
}

// correctRound scales the round's latencies by f, the share of busy CPU
// time the hypervisor did not steal during it, and adds them to the
// timed phase.
func (p *phase) correctRound(f float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, xs := range [][]float64{p.commitMs[p.markCommit:], p.restartMs[p.markRestart:]} {
		for i := range xs {
			xs[i] *= f
			p.timedMs += xs[i]
		}
	}
	p.factors = append(p.factors, f)
}

// enough reports whether the phase has the samples it needs.
func (p *phase) enough(min int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.commitMs) >= min && len(p.restartMs)+len(p.fastestMs) >= min
}

// runPhase runs whole rounds until the phase has its samples and the
// next round would end past budget. Each round starts from a collected
// heap, so the garbage of the previous round's checks is not collected
// during its operations, and its times are corrected for the CPU time
// the hypervisor stole during it.
func runPhase(e env, p *phase, budget time.Duration, min int) error {
	start := time.Now()
	for r := 0; ; r++ {
		runtime.GC()
		t0, c0 := time.Now(), readCPUTime()
		p.markRound()
		if err := e.round(p, r); err != nil {
			return fmt.Errorf("%s round %d: %w", p.tag, r, err)
		}
		p.correctRound(unstolen(c0, readCPUTime()))
		if p.enough(min) && time.Since(start)+time.Since(t0) > budget {
			return nil
		}
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's JSON object.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a run's output plus its per-kind operation accounting.
type result struct {
	out       output
	attempted [numOps]int
	failed    [numOps]int
	// factors are the rounds' steal corrections.
	factors []float64
}

// opsLine renders the per-kind attempted/failed counts.
func (r *result) opsLine() string {
	var b strings.Builder
	b.WriteString("ops:")
	for i, n := range opNames {
		fmt.Fprintf(&b, " %s %d attempted %d failed;", n, r.attempted[i], r.failed[i])
	}
	return strings.TrimSuffix(b.String(), ";")
}

// absorb adds a phase's operation counts to the result.
func (r *result) absorb(p *phase) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < numOps; i++ {
		r.attempted[i] += p.attempted[i]
		r.failed[i] += p.failed[i]
		r.out.Attempted += p.attempted[i]
		r.out.Failed += p.failed[i]
	}
	r.factors = append(r.factors, p.factors...)
}

// measure sets the workload up setupReps times, runs the measured
// phase (or the untraced and traced phases), and assembles the result.
// A nil result means nothing was measured.
func measure(cfg config, spec workloadSpec, root string, cl *closers) (*result, error) {
	var setups []float64
	var e env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
		}
		t0, c0 := time.Now(), readCPUTime()
		var err error
		e, err = spec.setup(cfg.seed, filepath.Join(root, fmt.Sprintf("s%d", i)), spec.sizes)
		setups = append(setups, time.Since(t0).Seconds()*unstolen(c0, readCPUTime()))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cl.add(e.close)
	}
	budget := time.Duration(cfg.seconds) * time.Second
	res := &result{out: output{Correct: true}}
	finish := func(err error, phases ...*phase) (*result, error) {
		for _, p := range phases {
			res.absorb(p)
		}
		var ce *checkError
		if errors.As(err, &ce) {
			res.out.Correct = false
		}
		return res, err
	}
	if !cfg.trace {
		p := newPhase("m", false)
		if err := runPhase(e, p, budget, spec.sizes.minOps); err != nil {
			return finish(err, p)
		}
		m, err := endToEnd(p)
		if err != nil {
			return finish(err, p)
		}
		m["setup_s"] = metric{median(setups), "s"}
		rss, err := peakRSSMB()
		if err != nil {
			return finish(err, p)
		}
		m["peak_rss_mb"] = metric{rss, "MB"}
		res.out.Metrics = m
		return finish(nil, p)
	}
	plain, traced := newPhase("u", false), newPhase("t", true)
	if err := runPhase(e, plain, budget/2, spec.sizes.minOps); err != nil {
		return finish(err, plain)
	}
	if err := runPhase(e, traced, budget/2, spec.sizes.minOps); err != nil {
		return finish(err, plain, traced)
	}
	m, err := perLayer(traced, plain)
	res.out.Metrics = m
	return finish(err, plain, traced)
}

// endToEnd computes the phase's end-to-end metrics (all but setup_s
// and peak_rss_mb, which belong to the whole run).
func endToEnd(p *phase) (map[string]metric, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	restarts := append(append([]float64(nil), p.restartMs...), p.fastestMs...)
	if len(p.commitMs) == 0 || len(restarts) == 0 || p.rawBytes == 0 || p.timedMs <= 0 {
		return nil, fmt.Errorf("phase %s recorded no commits or restarts", p.tag)
	}
	return map[string]metric{
		"commit_ms_p50":               {quantile(p.commitMs, 0.5), "ms"},
		"commit_ms_p90":               {quantile(p.commitMs, 0.9), "ms"},
		"restart_ms_p50":              {quantile(restarts, 0.5), "ms"},
		"restart_ms_p90":              {quantile(restarts, 0.9), "ms"},
		"state_mb_per_s":              {float64(p.rawBytes) / 1e6 / (p.timedMs / 1e3), "MB/s"},
		"stored_bytes_per_state_byte": {float64(p.stored) / float64(p.rawBytes), "ratio"},
		"restart_err_max":             {p.errMax, "ratio"},
	}, nil
}

// overheadMetrics are the end-to-end metrics whose traced-minus-plain
// difference the traced run reports. Storage and error are identical
// by construction, and peak RSS is one high-water mark per process.
var overheadMetrics = []string{"commit_ms_p50", "commit_ms_p90", "restart_ms_p50", "restart_ms_p90", "state_mb_per_s"}

// quasiRandom returns the k-th point of the golden-ratio sequence
// scaled to [0, n): well spread and the same on every run, so a run's
// restarts always walk the same mix of chain depths.
func quasiRandom(k, n int) int {
	_, frac := math.Modf(float64(k) * (math.Sqrt(5) - 1) / 2)
	return int(frac * float64(n))
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is a snapshot of the machine's CPU time from /proc/stat, in
// clock ticks: busy (user, nice, system, irq, softirq) and steal, the
// time a runnable virtual CPU waited while the hypervisor ran something
// else.
type cpuTime struct{ busy, steal int64 }

// readCPUTime reads the machine's CPU time; zero when it cannot.
func readCPUTime() cpuTime {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTime{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTime{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return cpuTime{}
		}
	}
	return cpuTime{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// unstolen is the share of the CPU time wanted between two snapshots
// that the hypervisor did not steal: busy/(busy+steal), 1 when nothing
// ran. On a shared host the hypervisor takes a varying share of the
// virtual CPUs — up to a third in bad minutes — and a wall-clock
// interval scaled by this share is the time the same work takes
// without that theft. It over-corrects the part of an interval spent
// waiting on the disk, which steal does not stretch.
func unstolen(a, b cpuTime) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	//lint:ignore errcheck read-only procfs file
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// layers accumulates a traced phase's per-layer spans and counts. Every
// method is nil-safe, so untraced code calls them unconditionally.
type layers struct {
	mu    sync.Mutex
	spans map[string]*spanAcc
	sums  map[string]float64
	// rec records the benchmark's own traced ReadViews and shadow
	// decodes; client counts client retries; prog holds the program's
	// recorders (tenants, stores) of the traced phase.
	rec    *obs.Recorder
	client *obs.Recorder
	prog   []*obs.Recorder
}

// spanAcc is a count and a total duration.
type spanAcc struct {
	n     int
	total time.Duration
}

// newLayers returns empty layer accumulators.
func newLayers() *layers {
	return &layers{spans: map[string]*spanAcc{}, sums: map[string]float64{}, rec: obs.NewRecorder(), client: obs.NewRecorder()}
}

// span records one span of name that took d.
func (l *layers) span(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.spans[name]
	if a == nil {
		a = &spanAcc{}
		l.spans[name] = a
	}
	a.n++
	a.total += d
}

// add adds v to the named sum.
func (l *layers) add(name string, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sums[name] += v
	l.mu.Unlock()
}

// program registers one of the program's recorders.
func (l *layers) program(rec *obs.Recorder) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.prog = append(l.prog, rec)
	l.mu.Unlock()
}

// recorder returns the benchmark's own recorder (nil when untraced).
func (l *layers) recorder() *obs.Recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// clientRecorder returns the client retry recorder (nil when
// untraced).
func (l *layers) clientRecorder() *obs.Recorder {
	if l == nil {
		return nil
	}
	return l.client
}

// perLayerNames lists every per-layer metric with its unit, in report
// order.
var perLayerNames = []struct{ name, unit string }{
	{"server.commit_handler_ms", "ms"},
	{"server.get_handler_ms", "ms"},
	{"server.upload_range_handler_ms", "ms"},
	{"server.finalize_handler_ms", "ms"},
	{"server.wire_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.requests", "count"},
	{"server.client_retries", "count"},
	{"server.commit_replays", "count"},
	{"checkpoint.prev_restart_ms", "ms"},
	{"checkpoint.open_close_ms", "ms"},
	{"checkpoint.deltas_per_restart", "count"},
	{"checkpoint.write_encoded_ms", "ms"},
	{"checkpoint.write_full_ms", "ms"},
	{"checkpoint.crc_ms", "ms"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.bytes_written", "bytes"},
	{"checkpoint.index_rereads", "count"},
	{"core.encode_ms", "ms"},
	{"core.ratio_ms", "ms"},
	{"core.table_ms", "ms"},
	{"core.assign_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"core.gamma", "ratio"},
	{"core.points_decoded_per_restart", "count"},
	{"bitpack.ms", "ms"},
	{"chunk.read_ms", "ms"},
	{"chunk.queue_wait_ms", "ms"},
	{"chunk.peak_buffer_bytes", "bytes"},
}

// perLayer computes the traced phase's per-layer metrics and the
// tracing overhead against the untraced phase.
func perLayer(traced, plain *phase) (map[string]metric, error) {
	pm, err := endToEnd(plain)
	if err != nil {
		return nil, err
	}
	tm, err := endToEnd(traced)
	if err != nil {
		return nil, err
	}
	l := traced.lay
	l.mu.Lock()
	defer l.mu.Unlock()
	snaps := make([]obs.Snapshot, 0, len(l.prog))
	for _, r := range l.prog {
		snaps = append(snaps, r.Snapshot())
	}
	prog := obs.MergeSnapshots(snaps...)
	own := l.rec.Snapshot()

	mean := func(name string) float64 {
		a := l.spans[name]
		if a == nil || a.n == 0 {
			return 0
		}
		return ms(a.total) / float64(a.n)
	}
	total := func(name string) time.Duration {
		if a := l.spans[name]; a != nil {
			return a.total
		}
		return 0
	}
	count := func(name string) float64 {
		if a := l.spans[name]; a != nil {
			return float64(a.n)
		}
		return 0
	}
	per := func(v, n float64) float64 {
		if fputil.IsZero(n) {
			return 0
		}
		return v / n
	}
	stageMs := func(s obs.Snapshot, name string) float64 { return float64(s.Stage(name).TotalNs) / 1e6 }

	handlers := []string{"server.commit_handler", "server.get_handler", "server.upload_range_handler", "server.finalize_handler", "server.upload_create_handler", "server.other_handler"}
	var handlerTotal time.Duration
	var requests float64
	for _, h := range handlers {
		handlerTotal += total(h)
		requests += count(h)
	}
	calls := count("server.client_call")
	// Handler plus wire is the round trip, which runs inside the client
	// call on the client's own goroutine: their sums must nest.
	if total("server.roundtrip") > total("server.client_call") {
		return nil, checkFailed("handler plus wire %v exceeds the client calls' %v", total("server.roundtrip"), total("server.client_call"))
	}
	deltas := l.sums["delta_commits"]
	commits := float64(len(traced.commitMs))
	walks := l.sums["restarts_walked"]

	out := map[string]float64{
		"server.commit_handler_ms":        mean("server.commit_handler"),
		"server.get_handler_ms":           mean("server.get_handler"),
		"server.upload_range_handler_ms":  mean("server.upload_range_handler"),
		"server.finalize_handler_ms":      mean("server.finalize_handler"),
		"server.wire_ms":                  per(ms(total("server.roundtrip")-handlerTotal), calls),
		"server.unattributed_ms":          per(ms(total("server.client_call")-total("server.roundtrip")), calls),
		"server.requests":                 requests,
		"server.client_retries":           float64(l.client.Snapshot().Counters[obs.CounterRetries.String()]),
		"server.commit_replays":           float64(prog.Counters[obs.CounterCommitReplays.String()]),
		"checkpoint.prev_restart_ms":      mean("checkpoint.prev_restart"),
		"checkpoint.open_close_ms":        mean("checkpoint.open_close"),
		"checkpoint.deltas_per_restart":   per(l.sums["deltas_walked"], walks),
		"checkpoint.write_encoded_ms":     mean("checkpoint.write_encoded"),
		"checkpoint.write_full_ms":        mean("checkpoint.write_full"),
		"checkpoint.crc_ms":               per(stageMs(prog, "crc"), deltas),
		"checkpoint.write_ms":             per(stageMs(prog, "write"), deltas),
		"checkpoint.bytes_written":        per(l.sums["journaled_bytes"], commits),
		"checkpoint.index_rereads":        float64(prog.Counters[obs.CounterIndexRereads.String()] + own.Counters[obs.CounterIndexRereads.String()]),
		"core.encode_ms":                  mean("core.encode"),
		"core.ratio_ms":                   per(stageMs(prog, "ratio"), deltas),
		"core.table_ms":                   per(stageMs(prog, "table"), deltas),
		"core.assign_ms":                  per(stageMs(prog, "assign"), deltas),
		"core.decode_ms":                  per(stageMs(own, "decode"), walks),
		"core.gamma":                      per(float64(prog.Counters[obs.CounterExactValues.String()]), float64(prog.Counters[obs.CounterPointsEncoded.String()])),
		"core.points_decoded_per_restart": per(float64(own.Counters[obs.CounterPointsDecoded.String()]), walks),
		"bitpack.ms":                      per(stageMs(prog, "bitpack"), deltas),
		"chunk.read_ms":                   per(stageMs(prog, "read"), deltas),
		"chunk.queue_wait_ms":             per(stageMs(prog, "queue-wait"), deltas),
		"chunk.peak_buffer_bytes":         float64(prog.Gauges[obs.GaugePeakBufferBytes.String()]),
	}
	m := make(map[string]metric, len(out)+len(overheadMetrics))
	for _, pl := range perLayerNames {
		m[pl.name] = metric{out[pl.name], pl.unit}
	}
	for _, name := range overheadMetrics {
		m["overhead."+name] = metric{tm[name].Value - pm[name].Value, tm[name].Unit}
	}
	return m, nil
}
