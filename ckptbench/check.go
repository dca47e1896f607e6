package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"numarck/internal/checkpoint"
	"numarck/internal/fputil"
)

// The checkers below judge the program's outputs against the generated
// truth alone. They share no code with the codec or the store, so a
// fault in either cannot hide itself.

// fpSlack is the relative floating-point slack the delta bound allows:
// a few units in the last place of the values involved, enough for
// the rounding of one ratio and one multiply.
const fpSlack = 8 * 0x1p-52

// checkFull requires a full iteration to be bit-exact with the state
// that was committed.
func checkFull(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("full: %d points, committed %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("full: point %d is %v, committed %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkDelta requires a delta reconstruction to meet the point-wise
// bound implied by the error bound e. With x the truth, x̂ the
// reconstruction and r̂ = x̂/x̂prev − 1 the ratio the decoder applied:
//
//	|x̂ − x| ≤ (|1+r̂| + e)·|x̂prev − xprev| + e·|xprev|
//
// An open-loop encoder (ratios against the true previous state) and a
// closed-loop one (ratios against the reconstructed previous state)
// both satisfy it, up to fpSlack.
func checkDelta(gotPrev, got, truePrev, trueCur []float64, e float64) error {
	n := len(trueCur)
	if len(got) != n || len(gotPrev) != n || len(truePrev) != n {
		return fmt.Errorf("delta: lengths got %d, got prev %d, true prev %d, true %d", len(got), len(gotPrev), len(truePrev), n)
	}
	for i := 0; i < n; i++ {
		x, xh, xp, xhp := trueCur[i], got[i], truePrev[i], gotPrev[i]
		rh := 0.0
		if !fputil.IsZero(xhp) {
			rh = xh/xhp - 1
		}
		bound := (math.Abs(1+rh)+e)*math.Abs(xhp-xp) + e*math.Abs(xp)
		slack := fpSlack * (math.Abs(x) + math.Abs(xh) + math.Abs(xp) + math.Abs(xhp))
		if diff := math.Abs(xh - x); !(diff <= bound+slack) {
			return fmt.Errorf("delta: point %d is %v, truth %v: error %g exceeds bound %g (prev %v, true prev %v)", i, xh, x, diff, bound, xhp, xp)
		}
	}
	return nil
}

// checkIteration applies checkFull or checkDelta by kind.
func checkIteration(kind string, gotPrev, got, truePrev, trueCur []float64, e float64) error {
	if kind == "full" {
		return checkFull(got, trueCur)
	}
	return checkDelta(gotPrev, got, truePrev, trueCur, e)
}

// relErr is the largest |got − want| over the points, divided by the
// largest |want| (0 when want is all zero and got matches).
func relErr(got, want []float64) float64 {
	var diff, scale float64
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	if fputil.IsZero(scale) {
		return diff
	}
	return diff / scale
}

// checkChain requires a series' chain to list exactly one entry per
// committed iteration 0..len(kinds)-1, each of the requested kind.
func checkChain(series string, entries []checkpoint.ChainEntry, kinds []string) error {
	if len(entries) != len(kinds) {
		return fmt.Errorf("chain %s: %d entries, committed %d iterations", series, len(entries), len(kinds))
	}
	for i, ce := range entries {
		if ce.Variable != series || ce.Iteration != i || ce.Kind != kinds[i] {
			return fmt.Errorf("chain %s: entry %d is %s %s@%d, want %s %s@%d", series, i, ce.Kind, ce.Variable, ce.Iteration, kinds[i], series, i)
		}
	}
	return nil
}

// diskBytes sums the sizes of the series' checkpoint files in a store
// directory, found by listing it rather than by asking the store.
func diskBytes(dir, series string) (int64, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, series+".") || !strings.HasSuffix(name, ".nmk") {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// checkDiskBytes requires the series' files on disk to add up to want,
// the byte count the commits reported.
func checkDiskBytes(dir, series string, want int64) (int64, error) {
	got, err := diskBytes(dir, series)
	if err != nil {
		return 0, err
	}
	if got != want {
		return got, fmt.Errorf("disk %s: %d bytes on disk, commits reported %d", series, got, want)
	}
	return got, nil
}
