package main

import (
	"fmt"

	"swvec"
	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/cluster"
)

// The output checks run after the timed phase, never inside it.

// checkScan verifies every timed search: it returned without error,
// quarantined nothing, ranked the query's two planted homologs first,
// and its sampled scores equal the scalar reference
// (baselines.ScalarAffine). Each failure is recorded on p; the return
// value marks the failed operations.
func checkScan(p *pass, planted map[string][2]string, db, qs []swvec.Sequence, ops []scanOp) []bool {
	mat := swvec.Blosum62()
	alpha := mat.Alphabet()
	gaps := swvec.DefaultGaps()
	type key struct{ q, d int }
	ref := map[key]int32{}
	bad := make([]bool, len(ops))
	for i, op := range ops {
		if err := checkScanOp(op, planted, db, qs, func(q, d int) int32 {
			k := key{q, d}
			if s, ok := ref[k]; ok {
				return s
			}
			s := baselines.ScalarAffine(alpha.Encode(qs[q].Residues), alpha.Encode(db[d].Residues), mat, gaps).Score
			ref[k] = s
			return s
		}); err != nil {
			bad[i] = true
			p.problem("scan search %d (%s): %v", i, qs[op.query].ID, err)
		}
	}
	return bad
}

// checkScanOp checks one search; want gives the reference score of a
// (query, database) index pair.
func checkScanOp(op scanOp, planted map[string][2]string, db, qs []swvec.Sequence, want func(q, d int) int32) error {
	if op.err != nil {
		return op.err
	}
	if n := len(op.res.Quarantined); n > 0 {
		return fmt.Errorf("%d sequences quarantined", n)
	}
	hom := planted[qs[op.query].ID]
	got := [2]string{db[op.top[0]].ID, db[op.top[1]].ID}
	if !(got == hom || got == [2]string{hom[1], hom[0]}) {
		return fmt.Errorf("top hits %v, want the planted homologs %v", got, hom)
	}
	for k, si := range op.sample {
		if w := want(op.query, si); op.scores[k] != w {
			return fmt.Errorf("score against %s is %d, scalar reference %d", db[si].ID, op.scores[k], w)
		}
	}
	return nil
}

// checkServeResponse checks one reply: no error, not partial, and hits
// bit-identical — IDs, scores and order — to the single-node top-K.
func checkServeResponse(resp wireResponse, want []cluster.Hit) error {
	if resp.Error != "" {
		return fmt.Errorf("error %q (code %s)", resp.Error, resp.Code)
	}
	if resp.Partial {
		return fmt.Errorf("partial response, skipped shards %v", resp.Shards.Skipped)
	}
	if len(resp.Hits) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(resp.Hits), len(want))
	}
	for i := range want {
		if resp.Hits[i] != want[i] {
			return fmt.Errorf("hit %d is %+v, want %+v", i, resp.Hits[i], want[i])
		}
	}
	return nil
}

// checkAlignment checks one traceback: its score equals the score-only
// reference want, and replaying its CIGAR over the sequences gives the
// same score.
func checkAlignment(a *swvec.Alignment, q, t []byte, want int32) error {
	if a == nil {
		return fmt.Errorf("no alignment")
	}
	if a.Score != want {
		return fmt.Errorf("Align score %d, Score %d", a.Score, want)
	}
	mat := swvec.Blosum62()
	alpha := mat.Alphabet()
	score := func(qc, dc uint8) int32 { return int32(mat.Score(qc, dc)) }
	got, err := aln.Rescore(a, alpha.Encode(q), alpha.Encode(t), score, swvec.DefaultGaps())
	if err != nil {
		return fmt.Errorf("rescore CIGAR %s: %w", a.CigarString(), err)
	}
	if got != want {
		return fmt.Errorf("CIGAR %s rescores to %d, want %d", a.CigarString(), got, want)
	}
	return nil
}
