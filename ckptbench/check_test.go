package main

import (
	"math"
	"path/filepath"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/sim/climate"
)

// climateChain returns n iterations of a climate variable.
func climateChain(t *testing.T, name string, n int) [][]float64 {
	t.Helper()
	g, err := climate.NewGenerator(name, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g.Iterations(0, n)
}

// TestDeltaBoundHoldsOpenAndClosedLoop runs the real codec both ways
// over a chain: every reconstruction must pass the checker.
func TestDeltaBoundHoldsOpenAndClosedLoop(t *testing.T) {
	truth := climateChain(t, "abs550aer", 6)
	for _, closed := range []bool{false, true} {
		recon := truth[0]
		for i := 1; i < len(truth); i++ {
			prev := truth[i-1]
			if closed {
				prev = recon
			}
			enc, err := core.Encode(prev, truth[i], encodeOpt)
			if err != nil {
				t.Fatal(err)
			}
			next, err := enc.Decode(recon)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDelta(recon, next, truth[i-1], truth[i], encodeOpt.ErrorBound); err != nil {
				t.Fatalf("closed loop %v, iteration %d: %v", closed, i, err)
			}
			recon = next
		}
	}
}

// TestDeltaBoundPerturbedFails puts one point exactly on the bound,
// which passes, then just past it, which fails.
func TestDeltaBoundPerturbedFails(t *testing.T) {
	const e = 0.001
	truePrev := []float64{100, -250, 3.5, 1e-3}
	trueCur := []float64{101, -249, 3.49, 1.1e-3}
	gotPrev := []float64{100.05, -250.2, 3.5, 1e-3}
	got := make([]float64, len(trueCur))
	for i := range got {
		got[i] = gotPrev[i] * trueCur[i] / truePrev[i]
	}
	if err := checkDelta(gotPrev, got, truePrev, trueCur, e); err != nil {
		t.Fatalf("in-bound reconstruction rejected: %v", err)
	}
	// Point 2 has no inherited error, so its bound is e·|xprev|.
	onBound := append([]float64(nil), got...)
	onBound[2] = trueCur[2] + e*math.Abs(truePrev[2])
	if err := checkDelta(gotPrev, onBound, truePrev, trueCur, e); err != nil {
		t.Fatalf("reconstruction on the bound rejected: %v", err)
	}
	past := append([]float64(nil), onBound...)
	past[2] = trueCur[2] + e*math.Abs(truePrev[2])*(1+1e-9)
	if err := checkDelta(gotPrev, past, truePrev, trueCur, e); err == nil {
		t.Fatal("reconstruction just past the bound accepted")
	}
	// Point 0 inherits error 0.05 from its previous reconstruction, and
	// its decoder ratio r̂ moves with the reconstruction, so solve
	// d = k·((|1+r̂(d)| + e)·0.05 + e·|xprev|) for d, k just over 1.
	k := 1 + 1e-9
	xhp, inh := gotPrev[0], gotPrev[0]-truePrev[0]
	d := k * ((trueCur[0]/xhp+e)*inh + e*truePrev[0]) / (1 - k*inh/xhp)
	inherited := append([]float64(nil), got...)
	inherited[0] = trueCur[0] + d/k
	if err := checkDelta(gotPrev, inherited, truePrev, trueCur, e); err != nil {
		t.Fatalf("reconstruction on the compounded bound rejected: %v", err)
	}
	inherited[0] = trueCur[0] + d
	if err := checkDelta(gotPrev, inherited, truePrev, trueCur, e); err == nil {
		t.Fatal("reconstruction past the compounded bound accepted")
	}
}

// TestFullBitFlipFails flips one bit of a full iteration.
func TestFullBitFlipFails(t *testing.T) {
	want := climateChain(t, "rlus", 1)[0]
	got := append([]float64(nil), want...)
	if err := checkFull(got, want); err != nil {
		t.Fatal(err)
	}
	got[1234] = math.Float64frombits(math.Float64bits(got[1234]) ^ 1)
	if err := checkFull(got, want); err == nil {
		t.Fatal("full iteration with a flipped bit accepted")
	}
}

// TestChainDroppedEntryFails drops and mislabels chain entries.
func TestChainDroppedEntryFails(t *testing.T) {
	kinds := []string{"full", "delta", "delta", "delta"}
	var entries []checkpoint.ChainEntry
	for i, k := range kinds {
		entries = append(entries, checkpoint.ChainEntry{Entry: checkpoint.Entry{Variable: "rlus", Kind: k, Iteration: i}})
	}
	if err := checkChain("rlus", entries, kinds); err != nil {
		t.Fatal(err)
	}
	dropped := append(append([]checkpoint.ChainEntry(nil), entries[:2]...), entries[3:]...)
	if err := checkChain("rlus", dropped, kinds); err == nil {
		t.Fatal("chain with a dropped entry accepted")
	}
	if err := checkChain("rlus", entries[:3], kinds); err == nil {
		t.Fatal("chain with its last entry dropped accepted")
	}
	relabeled := append([]checkpoint.ChainEntry(nil), entries...)
	relabeled[2].Kind = "full"
	if err := checkChain("rlus", relabeled, kinds); err == nil {
		t.Fatal("chain with a wrong kind accepted")
	}
}

// tinySizes shrinks every workload to a few iterations.
var tinySizes = sizes{tiles: 1, chain: 4, blocks: 2, libIters: 3, minOps: 1}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, through the same phase and metric code as the benchmark.
func TestTinyWorkloads(t *testing.T) {
	for name, spec := range workloads {
		t.Run(name, func(t *testing.T) {
			e, err := spec.setup(3, filepath.Join(t.TempDir(), "root"), tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := e.close(); err != nil {
					t.Error(err)
				}
			}()
			plain, traced := newPhase("u", false), newPhase("t", true)
			if err := runPhase(e, plain, 0, 1); err != nil {
				t.Fatal(err)
			}
			if err := runPhase(e, traced, 0, 1); err != nil {
				t.Fatal(err)
			}
			if plain.failed != [numOps]int{} || traced.failed != [numOps]int{} {
				t.Fatalf("failed operations: %v %v", plain.failed, traced.failed)
			}
			m, err := endToEnd(plain)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range m {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", k, v.Value)
				}
			}
			lm, err := perLayer(traced, plain)
			if err != nil {
				t.Fatal(err)
			}
			if len(lm) != len(perLayerNames)+len(overheadMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(lm), len(perLayerNames)+len(overheadMetrics))
			}
		})
	}
}
