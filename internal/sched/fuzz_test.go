package sched

import (
	"bytes"
	"fmt"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// fuzzSep splits the fuzzed database bytes into sequences.
const fuzzSep = 0xff

// fuzzResidues maps fuzz bytes onto residue letters, bounded to keep
// each search cheap.
func fuzzResidues(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = protAlpha.Letter(uint8(int(b) % protAlpha.Size()))
	}
	return out
}

// ramp is n residue codes cycling through the first 20 letters.
func ramp(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 20)
	}
	return b
}

// FuzzSearchScenarios is the scenario-level differential fuzzer:
// Search, MultiSearch and Subroutine over one fuzzed query and
// database must each give every sequence the scalar reference's score,
// on either backend. The kernel fuzzers check one kernel at a time;
// this one checks the saturation ladder the modeled scenarios build
// around the kernels, and the native backend's one exact stage. Under
// a +120 match score two matching residues saturate 8 bits and 274
// overflow int16, so a few hundred residues reach all three modeled
// tiers.
func FuzzSearchScenarios(f *testing.F) {
	// One seed per modeled tier: at most one matching residue per pair
	// (8-bit scores only), a 60-residue self-hit (7200, rescued at 16
	// bits), and a 300-residue self-hit (36000, escalated to 32 bits).
	// The same three inputs then run on the native backend.
	f.Add(ramp(10), []byte{10, 11, 12, 13, fuzzSep, 19, 0}, uint8(0), uint8(0))
	f.Add(ramp(60), append(ramp(60), fuzzSep, 5, 6, 7), uint8(0), uint8(0))
	f.Add(ramp(300), append(ramp(300), fuzzSep, 3, 3, 3), uint8(2), uint8(0))
	f.Add(ramp(10), []byte{10, 11, 12, 13, fuzzSep, 19, 0}, uint8(0), uint8(1))
	f.Add(ramp(60), append(ramp(60), fuzzSep, 5, 6, 7), uint8(0), uint8(1))
	f.Add(ramp(300), append(ramp(300), fuzzSep, 3, 3, 3), uint8(2), uint8(1))

	mat := submat.MatchMismatch(protAlpha, 120, -60)
	kernels := []core.Kernel{core.KernelAuto, core.KernelDiagonal, core.KernelStriped, core.KernelLazyF}
	backends := []core.Backend{core.BackendModeled, core.BackendNative}
	f.Fuzz(func(t *testing.T, qraw, draw []byte, kern, backend uint8) {
		query := protAlpha.Encode(fuzzResidues(qraw, 320))
		var db []seqio.Sequence
		for i, piece := range bytes.Split(draw, []byte{fuzzSep}) {
			if len(piece) == 0 || len(db) == 4 {
				continue
			}
			db = append(db, seqio.Sequence{ID: fmt.Sprintf("s%d", i), Residues: fuzzResidues(piece, 320)})
		}
		if len(query) == 0 || len(db) == 0 {
			t.Skip()
		}
		opt := Options{Gaps: aln.DefaultGaps(), Threads: 2, Width: 256,
			Kernel: kernels[int(kern)%len(kernels)], Backend: backends[int(backend)%len(backends)]}
		want := make([]int32, len(db))
		for si := range db {
			want[si] = baselines.ScalarAffine(query, db[si].Encode(protAlpha), mat, opt.Gaps).Score
		}

		res, err := Search(query, db, mat, opt)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := MultiSearch([][]uint8{query}, db, mat, opt)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := Subroutine([][]uint8{query}, db, mat, false, opt)
		if err != nil {
			t.Fatal(err)
		}
		for si, w := range want {
			if got := res.Hits[si].Score; got != w {
				t.Errorf("Search seq %d: score %d (rescued %v), scalar %d", si, got, res.Hits[si].Rescued, w)
			}
			if got := multi.Scores[0][si]; got != w {
				t.Errorf("MultiSearch seq %d: score %d, scalar %d", si, got, w)
			}
			if got := sub.Hits[si].Score; got != w {
				t.Errorf("Subroutine seq %d: score %d, scalar %d", si, got, w)
			}
		}
	})
}
