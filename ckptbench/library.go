package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
	"numarck/internal/sim/flash"
)

// stepsPerCheckpoint is how many simulation steps separate two
// checkpoints (the flashsim default).
const stepsPerCheckpoint = 3

// library is the library-insitu workload: no HTTP. Ten FLASH variables
// are appended through checkpoint.Writer with one full per round and
// open-loop deltas after it, and after each append one variable (in
// turn) is restarted through a ReadView at a quasi-random iteration at
// or before the append.
type library struct {
	root  string
	iters int
	// states[i] is the simulation's checkpoint i, by variable.
	states []map[string][]float64
}

// setupLibrary runs the simulation to produce the round's states.
func setupLibrary(seed int64, root string, sz sizes) (env, error) {
	sim, err := flash.New(flash.Config{BlocksX: sz.blocks, BlocksY: sz.blocks, Seed: seed})
	if err != nil {
		return nil, err
	}
	lib := &library{root: root, iters: sz.libIters}
	for i := 0; i < sz.libIters; i++ {
		sim.StepN(stepsPerCheckpoint)
		lib.states = append(lib.states, sim.Checkpoint().Vars)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return lib, nil
}

// close removes the workload's stores.
func (lib *library) close() error { return os.RemoveAll(lib.root) }

// rawBytes is the raw state size of one iteration.
func (lib *library) rawBytes() int64 {
	var n int64
	for _, v := range flash.Variables {
		n += 8 * int64(len(lib.states[0][v]))
	}
	return n
}

// commitReplicas is how many stores a library round appends each
// iteration to, one after the other; the commit's latency sample is the
// fastest of those appends. An append's own cost is nearly the same at
// every iteration, so the slowest appends of a round are those the host
// slowed (a stolen time slice, a slow flush), and a single append's
// p90 would measure the host. The repeats go to separate stores, so
// that no cache in the program can serve them.
const commitReplicas = 3

// round appends the round's iterations to fresh stores, restarting a
// variable of the first at a quasi-random iteration at or before each
// append, then, for every store, reconstructs every iteration of every
// variable and checks them, the chains and the bytes on disk, and for
// the first the sampled restarts.
func (lib *library) round(p *phase, r int) error {
	dir := filepath.Join(lib.root, fmt.Sprintf("lib%s%d", p.tag, r))
	opt := encodeOpt
	var rec *obs.Recorder
	if p.traced {
		rec = obs.NewRecorder()
		p.lay.program(rec)
		opt.Obs = rec
	}
	st, err := checkpoint.Create(dir, opt)
	if err != nil {
		return err
	}
	st.SetRecorder(rec)
	// The first store reports to a traced phase's recorder; the others
	// only time appends, so the per-layer figures count each once.
	dirs := []string{dir}
	stores := []*checkpoint.Store{st}
	writers := []*checkpoint.Writer{checkpoint.NewWriter(st, lib.iters)}
	for k := 1; k < commitReplicas; k++ {
		d := fmt.Sprintf("%s-%d", dir, k)
		st, err := checkpoint.Create(d, encodeOpt)
		if err != nil {
			return err
		}
		dirs, stores = append(dirs, d), append(stores, st)
		writers = append(writers, checkpoint.NewWriter(st, lib.iters))
	}
	var sh *shadowStore
	if p.traced {
		if sh, err = newShadowStore(dir+"-shadow", p.lay); err != nil {
			return err
		}
	}
	var view *checkpoint.ReadView
	var samples []sample
	raw := lib.rawBytes()
	for i := 0; i < lib.iters; i++ {
		var d time.Duration
		for k, w := range writers {
			t0 := time.Now()
			_, err := w.Append(i, lib.states[i])
			dk := time.Since(t0)
			if err != nil {
				p.commit(opCommit, dk, raw, err)
				return err
			}
			if k == 0 || dk < d {
				d = dk
			}
		}
		p.commit(opCommit, d, raw, nil)
		if sh != nil {
			if err := sh.commit(lib, i); err != nil {
				return err
			}
		}
		v, j := i%len(flash.Variables), quasiRandom(i+1, i+1)
		var got []float64
		var err error
		view, got, d, err = timedRestart(dir, rec, flash.Variables[v], j)
		p.restartFastest(d, err)
		if err != nil {
			return err
		}
		samples = append(samples, sample{series: v, iter: j, vals: got})
		if p.traced {
			shadow, err := shadowRestart(p.lay, view, flash.Variables[v], j)
			if err != nil {
				return err
			}
			if err := checkShadow(flash.Variables[v], j, shadow, got); err != nil {
				return err
			}
		}
	}
	if sh != nil {
		if err := sh.close(); err != nil {
			return err
		}
	}
	var stored int64
	errMax := 0.0
	for k, st := range stores {
		if err := st.Close(); err != nil {
			return err
		}
		lay := p.lay
		if k > 0 {
			if view, err = checkpoint.OpenReadOnly(dirs[k]); err != nil {
				return err
			}
			lay, samples = nil, nil
		}
		n, e, err := lib.verify(lay, view, dirs[k], samples)
		if err != nil {
			return err
		}
		if k == 0 {
			stored = n
		}
		errMax = math.Max(errMax, e)
		if err := os.RemoveAll(dirs[k]); err != nil {
			return err
		}
	}
	p.verified(stored, errMax)
	return nil
}

// verify checks a store's chains and bytes on disk against the
// journaled lengths, reconstructs every iteration of every variable
// from the chain files and checks each against the truth, then
// requires each timed restart to equal its reconstruction. It returns
// the chain bytes on disk and the largest relative restart error, and
// adds the journaled bytes to lay (which may be nil).
func (lib *library) verify(lay *layers, view *checkpoint.ReadView, dir string, samples []sample) (int64, float64, error) {
	kinds := make([]string, lib.iters)
	for i := range kinds {
		kinds[i] = "delta"
	}
	kinds[0] = "full"
	errMax := 0.0
	var stored int64
	recons := make([][][]float64, len(flash.Variables))
	for v, name := range flash.Variables {
		entries, err := view.Chain(name)
		if err != nil {
			return 0, 0, err
		}
		if err := checkChain(name, entries, kinds); err != nil {
			return 0, 0, checkFailed("%v", err)
		}
		var journaled int64
		for _, ce := range entries {
			journaled += ce.Len
		}
		n, err := checkDiskBytes(dir, name, journaled)
		if err != nil {
			return 0, 0, checkFailed("%v", err)
		}
		stored += n
		lay.add("journaled_bytes", float64(journaled))
		if recons[v], err = replayChain(dir, entries, nil); err != nil {
			return 0, 0, err
		}
		for i, got := range recons[v] {
			var gotPrev, truthPrev []float64
			if i > 0 {
				gotPrev, truthPrev = recons[v][i-1], lib.states[i-1][name]
			}
			if err := checkIteration(kinds[i], gotPrev, got, truthPrev, lib.states[i][name], encodeOpt.ErrorBound); err != nil {
				return 0, 0, checkFailed("%s@%d: %v", name, i, err)
			}
			errMax = math.Max(errMax, relErr(got, lib.states[i][name]))
		}
	}
	for _, sm := range samples {
		if err := checkFull(sm.vals, recons[sm.series][sm.iter]); err != nil {
			return 0, 0, checkFailed("restart %s@%d differs from the full reconstruction: %v", flash.Variables[sm.series], sm.iter, err)
		}
	}
	return stored, errMax, nil
}

// restartReps is how many times the library workload makes each
// restart. A restart here takes a few milliseconds, and on a shared
// host many single calls are preempted or stolen from for as long
// again; the fastest of the calls is what the restart itself costs.
const restartReps = 5

// timedRestart makes one restart restartReps times, each time the way a
// restarting simulation makes it: it opens a read view of the store at
// dir (recording into rec, which may be nil) and restarts variable at
// iter through it. A fresh view per call means no view's cache can
// serve a repeat. It returns the last view, the first call's result and
// the fastest call's time; every repeat must return the first result
// bit for bit.
func timedRestart(dir string, rec *obs.Recorder, variable string, iter int) (view *checkpoint.ReadView, got []float64, fastest time.Duration, err error) {
	for k := 0; k < restartReps; k++ {
		t0 := time.Now()
		view, err = checkpoint.OpenReadOnlyFS(dir, faultfs.OS(), rec)
		if err != nil {
			return nil, nil, time.Since(t0), err
		}
		vals, err := view.Restart(variable, iter)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, d, err
		}
		if k == 0 {
			got, fastest = vals, d
			continue
		}
		fastest = min(fastest, d)
		if err := checkFull(vals, got); err != nil {
			return nil, nil, d, checkFailed("repeated restart %s@%d differs from the first: %v", variable, iter, err)
		}
	}
	return view, got, fastest, nil
}

// sample is one timed restart, checked at the end of the round.
type sample struct {
	series, iter int
	vals         []float64
}

// shadowStore repeats each library commit layer by layer in a store of
// its own, outside the timed path: core.Encode against the true
// previous state and Store.WriteEncodedDelta for deltas,
// Store.WriteFull for fulls, each timed per commit.
type shadowStore struct {
	dir string
	st  *checkpoint.Store
	lay *layers
}

// newShadowStore creates the shadow store.
func newShadowStore(dir string, l *layers) (*shadowStore, error) {
	st, err := checkpoint.Create(dir, encodeOpt)
	if err != nil {
		return nil, err
	}
	return &shadowStore{dir: dir, st: st, lay: l}, nil
}

// commit repeats iteration i's commit of every variable.
func (sh *shadowStore) commit(lib *library, i int) error {
	if i == 0 {
		t0 := time.Now()
		for _, v := range flash.Variables {
			if err := sh.st.WriteFull(v, i, lib.states[i][v]); err != nil {
				return err
			}
		}
		sh.lay.span("checkpoint.write_full", time.Since(t0))
		return nil
	}
	var enc, write time.Duration
	for _, v := range flash.Variables {
		t0 := time.Now()
		e, err := core.Encode(lib.states[i-1][v], lib.states[i][v], encodeOpt)
		enc += time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = sh.st.WriteEncodedDelta(v, i, e)
		write += time.Since(t0)
		if err != nil {
			return err
		}
	}
	sh.lay.span("core.encode", enc)
	sh.lay.span("checkpoint.write_encoded", write)
	sh.lay.add("delta_commits", 1)
	return nil
}

// close closes and removes the shadow store.
func (sh *shadowStore) close() error {
	if err := sh.st.Close(); err != nil {
		return err
	}
	return os.RemoveAll(sh.dir)
}
