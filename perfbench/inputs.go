package main

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"swvec"
	"swvec/internal/seqio"
)

// Every input is derived from the run's seed. Lengths are stratified so
// that the workload's size mix — and with it every end-to-end metric —
// is the same from seed to seed, while the residues differ: each length
// comes from its own stratum of the target distribution, and lists are
// ordered so that any prefix covers the range evenly.

// rngFor returns an independent random stream for one input component.
func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// vdc is the base-2 van der Corput sequence: 0, 1/2, 1/4, 3/4, ... Its
// first n terms spread evenly over [0, 1) for every n.
func vdc(k int) float64 {
	return float64(bits.Reverse32(uint32(k))) / (1 << 32)
}

// spreadLengths returns n lengths over [lo, hi] in van der Corput
// order, each jittered within its stratum.
func spreadLengths(rng *rand.Rand, n, lo, hi int) []int {
	strata := 1
	for strata < n {
		strata *= 2
	}
	out := make([]int, n)
	for k := range out {
		u := vdc(k) + rng.Float64()/float64(strata)
		out[k] = lo + int(u*float64(hi-lo+1))
		if out[k] > hi {
			out[k] = hi
		}
	}
	return out
}

// swissProtLengths returns n lengths from the generator's log-normal
// Swiss-Prot model (mean 360 aa, log-sigma 0.62), one at the middle of
// each quantile stratum. The lengths and their order are the same for
// every seed: a database's size profile is part of its workload, and
// the seed draws only the residues.
func swissProtLengths(n int) []int {
	const mean, sigma = 360.0, 0.62
	mu := math.Log(mean) - sigma*sigma/2
	perm := rand.New(rand.NewSource(1)).Perm(n)
	out := make([]int, n)
	for i := range out {
		u := (float64(perm[i]) + 0.5) / float64(n)
		z := math.Sqrt2 * math.Erfinv(2*u-1)
		out[i] = max(25, int(math.Round(math.Exp(mu+sigma*z))))
	}
	return out
}

// fasta renders seqs as FASTA bytes, the form every input reaches the
// program in.
func fasta(seqs []seqio.Sequence) []byte {
	var b bytes.Buffer
	if err := swvec.WriteFasta(&b, seqs); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// decode parses FASTA strictly.
func decode(b []byte) ([]swvec.Sequence, error) {
	seqs, _, err := swvec.DecodeFasta(bytes.NewReader(b), swvec.DecodeOptions{Strict: true})
	return seqs, err
}

// scanInputs is the scan workload's data: a Swiss-Prot-like database
// with two planted homologs per query, the replayed query list, and
// warm-up queries.
type scanInputs struct {
	db      []byte
	queries []byte
	warm    []byte
	// planted maps a query ID to its two homologs' database IDs.
	planted map[string][2]string
}

// A 25 s run holds 40–65 searches of this database, enough for a tail
// latency above the median. 1000 sequences left about 25.
const (
	scanDBSize   = 250
	scanQueries  = 32
	scanQueryMin = 100
	scanQueryMax = 1000
	scanWarmLen  = 400
	scanWarmOps  = 4
	scanSubRate  = 0.15
)

func makeScanInputs(seed int64) scanInputs {
	g := seqio.NewGenerator(seed)
	rng := rngFor(seed, 1)
	in := scanInputs{planted: map[string][2]string{}}
	var db []seqio.Sequence
	for i, n := range swissProtLengths(scanDBSize) {
		db = append(db, g.Protein(fmt.Sprintf("SP%05d", i), n))
	}
	var qs []seqio.Sequence
	for i, n := range spreadLengths(rng, scanQueries, scanQueryMin, scanQueryMax) {
		q := g.Protein(fmt.Sprintf("Q%02d_len%d", i, n), n)
		qs = append(qs, q)
		var ids [2]string
		for k := range ids {
			ids[k] = fmt.Sprintf("HOM%02d_%d", i, k)
			db = append(db, g.Related(q, ids[k], scanSubRate, 0))
		}
		in.planted[q.ID] = ids
	}
	rng.Shuffle(len(db), func(a, b int) { db[a], db[b] = db[b], db[a] })
	var warm []seqio.Sequence
	for i := 0; i < scanWarmOps; i++ {
		warm = append(warm, g.Protein(fmt.Sprintf("WARM%d", i), scanWarmLen))
	}
	in.db, in.queries, in.warm = fasta(db), fasta(qs), fasta(warm)
	return in
}

// serveInputs is the serve workload's data: a small database and the
// distinct queries the open loop cycles through.
type serveInputs struct {
	db      []byte
	queries []seqio.Sequence
	warm    []seqio.Sequence
}

// The serve database holds short proteins: a shard pads every batch to
// its longest member, so long database sequences stretch each batch's
// compute and, with it, the wait of every query that arrives while a
// batch runs. Short ones keep the latency spread from one run to the
// next small.
const (
	serveDBSize   = 30
	serveDBMin    = 50
	serveDBMax    = 400
	serveQueries  = 64
	serveQueryMin = 35
	serveQueryMax = 150
	serveWarmOps  = 8
)

func makeServeInputs(seed int64) serveInputs {
	g := seqio.NewGenerator(seed + 7)
	rng := rngFor(seed, 2)
	var db []seqio.Sequence
	// The length profile is fixed: the same lengths in the same order
	// for every seed.
	for i, n := range spreadLengths(rand.New(rand.NewSource(1)), serveDBSize, serveDBMin, serveDBMax) {
		db = append(db, g.Protein(fmt.Sprintf("SV%04d", i), n))
	}
	var in serveInputs
	in.db = fasta(db)
	for i, n := range spreadLengths(rng, serveQueries, serveQueryMin, serveQueryMax) {
		in.queries = append(in.queries, g.Protein(fmt.Sprintf("R%02d", i), n))
	}
	for i, n := range spreadLengths(rng, serveWarmOps, serveQueryMin, serveQueryMax) {
		in.warm = append(in.warm, g.Protein(fmt.Sprintf("W%d", i), n))
	}
	return in
}

// alignInputs is the align workload's data: homologous pairs, replayed
// in order, and warm-up pairs.
type alignInputs struct {
	queries, targets []byte
	warmQ, warmT     []byte
}

const (
	alignPairs    = 128
	alignMin      = 50
	alignMax      = 1000
	alignSubRate  = 0.30
	alignIndel    = 0.02
	alignWarmLen  = 300
	alignWarmPair = 32
)

func makeAlignInputs(seed int64) alignInputs {
	g := seqio.NewGenerator(seed + 13)
	rng := rngFor(seed, 3)
	pairs := func(lens []int, prefix string) (qs, ts []seqio.Sequence) {
		for i, n := range lens {
			q := g.Protein(fmt.Sprintf("%sQ%03d", prefix, i), n)
			qs = append(qs, q)
			ts = append(ts, g.Related(q, fmt.Sprintf("%sT%03d", prefix, i), alignSubRate, alignIndel))
		}
		return qs, ts
	}
	qs, ts := pairs(spreadLengths(rng, alignPairs, alignMin, alignMax), "A")
	warm := make([]int, alignWarmPair)
	for i := range warm {
		warm[i] = alignWarmLen
	}
	wq, wt := pairs(warm, "W")
	return alignInputs{queries: fasta(qs), targets: fasta(ts), warmQ: fasta(wq), warmT: fasta(wt)}
}
