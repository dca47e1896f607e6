package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"numarck/internal/server"
	"numarck/internal/sim/climate"
)

// longChain is the daemon-long-chain workload: one client grows two
// tiled CMIP5 series (rlus, rlds) to a long delta chain, and GETs each
// iteration right after committing it. Every resumableEvery-th
// iteration goes through PushResumable in resumableRanges ranges, the
// rest through Push.
type longChain struct {
	d      *daemon
	series []string
	// states[s][i] is series s at iteration i as wire bytes.
	states [][][]byte
	chain  int
}

// resumableEvery and resumableRanges set which commits go through a
// resumable upload session and in how many ranges.
const (
	resumableEvery  = 4
	resumableRanges = 4
)

// setupLongChain generates the states and starts the daemon.
func setupLongChain(seed int64, root string, sz sizes) (env, error) {
	lc := &longChain{series: []string{"rlus", "rlds"}, chain: sz.chain}
	for _, name := range lc.series {
		g, err := climate.NewGenerator(name, seed)
		if err != nil {
			return nil, err
		}
		states := make([][]byte, sz.chain)
		for i := range states {
			states[i] = floatsLE(tile(g.Iteration(i), sz.tiles))
		}
		lc.states = append(lc.states, states)
	}
	d, err := startDaemon(root)
	if err != nil {
		return nil, err
	}
	lc.d = d
	return lc, nil
}

// tile lays out n copies of a climate grid side by side, copy k
// shifted k*18 cells in longitude, so the state is n times the grid
// with the grid's change statistics.
func tile(grid []float64, n int) []float64 {
	out := make([]float64, 0, n*len(grid))
	for k := 0; k < n; k++ {
		shift := (k * 18) % climate.NLon
		for j := 0; j < climate.NLat; j++ {
			row := grid[j*climate.NLon : (j+1)*climate.NLon]
			out = append(out, row[shift:]...)
			out = append(out, row[:shift]...)
		}
	}
	return out
}

// close stops the daemon.
func (lc *longChain) close() error { return lc.d.close() }

// round commits iterations 0..chain-1 of both series to a fresh
// tenant, iteration by iteration, GETting each right after its commit
// and checking it; then it checks the chains and the bytes on disk.
func (lc *longChain) round(p *phase, r int) error {
	name := fmt.Sprintf("lc%s%d", p.tag, r)
	lc.d.lay.Store(p.lay)
	defer lc.d.lay.Store(nil)
	c := lc.d.client(name, p.lay)
	t, err := lc.d.tenant(name)
	if err != nil {
		return err
	}
	p.lay.program(t.Recorder())
	tr := &tracer{lay: p.lay, tenant: t}
	fileBytes := make([]int64, len(lc.series))
	prevGot := make([][]float64, len(lc.series))
	kinds := make([]string, lc.chain)
	errMax := 0.0
	for i := 0; i < lc.chain; i++ {
		kinds[i] = "delta"
		if i == 0 {
			kinds[i] = "full"
		}
		for s, series := range lc.series {
			payload := lc.states[s][i]
			truth := parseLE(payload)
			if p.traced && i > 0 {
				if err := tr.beforeDelta(series, i, truth, encodeOpt); err != nil {
					return err
				}
			}
			op := opCommit
			if i%resumableEvery == resumableEvery-1 {
				op = opResumable
			}
			t0 := time.Now()
			var resp *server.CommitResponse
			var err error
			if op == opResumable {
				size := int64(len(payload))
				resp, err = c.PushResumable(series, i, bytes.NewReader(payload), size, (size+resumableRanges-1)/resumableRanges, nil)
			} else {
				resp, err = c.Push(series, i, bytes.NewReader(payload), nil)
			}
			d := time.Since(t0)
			p.commit(op, d, int64(len(payload)), err)
			if err != nil {
				return err
			}
			p.lay.span("server.client_call", d)
			if resp.Kind != kinds[i] || resp.Replayed {
				return checkFailed("%s@%d committed as %s (replayed %v), want %s", series, i, resp.Kind, resp.Replayed, kinds[i])
			}
			fileBytes[s] += resp.FileBytes
			if kinds[i] == "delta" {
				p.lay.add("delta_commits", 1)
			}
			p.lay.add("journaled_bytes", float64(resp.FileBytes))

			got, d, err := fetch(c, series, i)
			p.restart(d, err)
			if err != nil {
				return err
			}
			p.lay.span("server.client_call", d)
			var truthPrev []float64
			if i > 0 {
				truthPrev = parseLE(lc.states[s][i-1])
			}
			if err := checkIteration(kinds[i], prevGot[s], got, truthPrev, truth, encodeOpt.ErrorBound); err != nil {
				return checkFailed("%s@%d: %v", series, i, err)
			}
			errMax = math.Max(errMax, relErr(got, truth))
			if p.traced {
				if err := traceGet(p.lay, tr, series, i, got); err != nil {
					return err
				}
			}
			prevGot[s] = got
		}
	}
	view, err := t.View()
	if err != nil {
		return err
	}
	var stored int64
	for s, series := range lc.series {
		entries, err := view.Chain(series)
		if err != nil {
			return err
		}
		if err := checkChain(series, entries, kinds); err != nil {
			return checkFailed("%v", err)
		}
		n, err := checkDiskBytes(t.Dir(), series, fileBytes[s])
		if err != nil {
			return checkFailed("%v", err)
		}
		stored += n
	}
	p.verified(stored, errMax)
	return os.RemoveAll(t.Dir())
}
