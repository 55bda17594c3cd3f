// Package swvec is a vectorized Smith-Waterman sequence-alignment
// library reproducing "Further Optimizations and Analysis of
// Smith-Waterman with Vector Extensions" (IPDPS 2024). The alignment
// kernels run on an emulated, instruction-counting vector machine that
// mirrors AVX2/AVX-512, implementing the paper's wavefront kernel with
// diagonal memory indexing, the reorganized substitution matrix with
// gather and query-profile scoring, an interleaved 32-sequence batch
// engine, variable 8/16-bit width, optional traceback, Farrar's
// striped kernel family, and the Parasail-style diag/scan comparison
// kernels. Score-only alignments and searches run by default on the
// native backend instead: one exact 32-bit pair kernel in plain Go (see
// WithBackend).
//
// Quick start:
//
//	al, err := swvec.New(swvec.WithGaps(11, 1))
//	if err != nil { ... }
//	alignment, err := al.Align([]byte("MKVLAW"), []byte("MKVLNW"))
//	fmt.Println(alignment.Score, alignment.CigarString())
package swvec

import (
	"context"
	"fmt"
	"io"
	"math"

	"swvec/internal/aln"
	"swvec/internal/alphabet"
	"swvec/internal/core"
	"swvec/internal/metrics"
	"swvec/internal/sched"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// Re-exported domain types. They are aliases of the internal
// implementations so values flow between the public API and the
// low-level packages without copying.
type (
	// Gaps holds affine gap penalties as positive costs; a gap of
	// length k costs Open + (k-1)*Extend.
	Gaps = aln.Gaps
	// Alignment is a local alignment with coordinates and CIGAR.
	Alignment = aln.Alignment
	// CigarOp is one run-length-encoded traceback operation.
	CigarOp = aln.CigarOp
	// ScoreResult is a score-only alignment outcome.
	ScoreResult = aln.ScoreResult
	// Sequence is a named residue sequence.
	Sequence = seqio.Sequence
	// Matrix is a substitution matrix in the reorganized 32-wide
	// layout.
	Matrix = submat.Matrix
	// SearchResult is the outcome of a database search.
	SearchResult = sched.Result
	// MultiSearchResult is the outcome of a batched multi-query
	// search.
	MultiSearchResult = sched.MultiResult
	// Hit is one database sequence's search outcome.
	Hit = sched.Hit
	// SearchStats is the per-stage counter snapshot attached to search
	// results (batches, cells by width, saturations, queue high-water
	// mark, per-stage wall times).
	SearchStats = metrics.Snapshot
	// Quarantine is one database sequence the self-healing search
	// pipeline isolated after an alignment stage failed on its batch;
	// see SearchResult.Quarantined.
	Quarantine = sched.Quarantine
	// DecodeOptions configures the lenient FASTA decoder.
	DecodeOptions = seqio.DecodeOptions
	// DecodeReport summarizes what DecodeFasta skipped.
	DecodeReport = seqio.DecodeReport
	// SkippedRecord is one FASTA record the lenient decoder rejected.
	SkippedRecord = seqio.SkippedRecord
	// Backend selects the execution backend; see WithBackend.
	Backend = core.Backend
	// Kernel selects the kernel family; see WithKernel.
	Kernel = core.Kernel
)

// Execution backends. Auto resolves to the native backend for serving
// paths and to the modeled vek machine wherever instruction tallies
// are requested; the explicit values force a backend.
const (
	BackendAuto    = core.BackendAuto
	BackendModeled = core.BackendModeled
	BackendNative  = core.BackendNative
)

// ParseBackend parses a backend name: "auto" (or ""), "modeled", or
// "native".
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// Kernel families of the modeled backend. Auto runs the diagonal
// (anti-diagonal wavefront) family; the explicit values force a
// family: diagonal, Farrar's striped layout with the classic lazy-F
// loop, or the deconstructed shift-subtract-max scan. The native
// backend has one kernel, an exact 32-bit pair recurrence, and ignores
// the family.
const (
	KernelAuto     = core.KernelAuto
	KernelDiagonal = core.KernelDiagonal
	KernelStriped  = core.KernelStriped
	KernelLazyF    = core.KernelLazyF
)

// ParseKernel parses a kernel family name: "auto" (or ""), "diagonal",
// "striped", or "lazyf".
func ParseKernel(s string) (Kernel, error) { return core.ParseKernel(s) }

// PublishMetrics registers the process-wide search counters as the
// "swvec.search" expvar, for binaries that serve /debug/vars.
// Idempotent.
func PublishMetrics() { metrics.Publish() }

// GlobalStats returns a snapshot of the process-wide search counters
// accumulated across every search run so far.
func GlobalStats() SearchStats { return metrics.Global.Snapshot() }

// DefaultGaps returns the protein defaults (open 11, extend 1).
func DefaultGaps() Gaps { return aln.DefaultGaps() }

// Blosum62 returns the BLOSUM62 substitution matrix.
func Blosum62() *Matrix { return submat.Blosum62() }

// DNAMatrix returns the default DNA matrix (+2/-3, N neutral).
func DNAMatrix() *Matrix { return submat.DNADefault() }

// MatchMismatch returns a fixed-score protein matrix; kernels use the
// gather-free compare-and-blend fast path with it.
func MatchMismatch(match, mismatch int8) *Matrix {
	return submat.MatchMismatch(alphabet.ProteinAlphabet(), match, mismatch)
}

// ParseMatrix reads an NCBI-format substitution matrix for the protein
// alphabet.
func ParseMatrix(r io.Reader, name string) (*Matrix, error) {
	return submat.Parse(r, name, alphabet.ProteinAlphabet())
}

// ReadFasta parses FASTA records leniently: malformed records are
// skipped. Use DecodeFasta to see what was skipped or to enforce
// strictness and size limits.
func ReadFasta(r io.Reader) ([]Sequence, error) { return seqio.ReadFasta(r) }

// DecodeFasta parses FASTA records under the given options. In the
// default lenient mode malformed or oversized records are skipped,
// counted, and itemized in the report; with Strict set the first bad
// record fails the decode.
func DecodeFasta(r io.Reader, opt DecodeOptions) ([]Sequence, *DecodeReport, error) {
	return seqio.DecodeFasta(r, opt)
}

// WriteFasta writes FASTA records with 60-column wrapping.
func WriteFasta(w io.Writer, seqs []Sequence) error { return seqio.WriteFasta(w, seqs) }

// TotalResidues sums the residue counts of seqs.
func TotalResidues(seqs []Sequence) int64 { return seqio.TotalResidues(seqs) }

// GenerateDatabase produces a deterministic synthetic protein database
// with Swiss-Prot-like length and composition statistics.
func GenerateDatabase(seed int64, count int) []Sequence {
	return seqio.NewGenerator(seed).Database(count)
}

// GenerateQueries produces the evaluation's standard 10-protein query
// set (lengths 35..5000).
func GenerateQueries(seed int64) []Sequence { return seqio.StandardQueries(seed) }

// Aligner is the configured entry point for alignments and searches.
// It is safe for concurrent use.
type Aligner struct {
	mat     *submat.Matrix
	gaps    Gaps
	threads int
	sortLen bool
	width   int
	backend Backend
	kernel  Kernel
}

// Option configures an Aligner.
type Option func(*Aligner) error

// WithMatrix selects the substitution matrix (default BLOSUM62).
func WithMatrix(m *Matrix) Option {
	return func(a *Aligner) error {
		if m == nil {
			return fmt.Errorf("swvec: nil matrix")
		}
		a.mat = m
		return nil
	}
}

// WithGaps sets affine gap penalties (positive costs).
func WithGaps(open, extend int32) Option {
	return func(a *Aligner) error {
		a.gaps = Gaps{Open: open, Extend: extend}
		return a.gaps.Validate()
	}
}

// WithLinearGap selects the linear gap model with per-residue cost
// ext; the kernels switch to their reduced variants.
func WithLinearGap(ext int32) Option {
	return func(a *Aligner) error {
		a.gaps = aln.Linear(ext)
		return a.gaps.Validate()
	}
}

// WithThreads sets the worker count for searches (default
// GOMAXPROCS).
func WithThreads(n int) Option {
	return func(a *Aligner) error {
		if n < 0 {
			return fmt.Errorf("swvec: negative thread count %d", n)
		}
		a.threads = n
		return nil
	}
}

// WithLengthSortedBatches groups similar-length database sequences
// into the same batch, reducing padding work. The search pipeline
// streams the batches from a sorted index permutation; the database
// itself is never copied or reordered.
func WithLengthSortedBatches() Option {
	return func(a *Aligner) error {
		a.sortLen = true
		return nil
	}
}

// WithVectorWidth selects the vector register width of the search
// pipeline's 8-bit batch engine, for Search and SearchAll alike: 256
// (32-lane batches), 512 (64-lane batches), or 0 to auto-detect from
// the native architecture model. The 16- and 32-bit rescues align one
// pair at a time and do not depend on it. On the native backend the
// width only sets how many sequences a batch holds; each is scored on
// its own.
func WithVectorWidth(bits int) Option {
	return func(a *Aligner) error {
		switch bits {
		case 0, 256, 512:
			a.width = bits
			return nil
		}
		return fmt.Errorf("swvec: unsupported vector width %d (want 0, 256, or 512)", bits)
	}
}

// WithBackend selects the execution backend. The default (BackendAuto)
// runs score-only alignments and searches on the native backend: one
// exact 32-bit pair kernel in plain Go, which returns the modeled
// vector machine's scores at a fraction of the cost, never saturates,
// and so never rescues (Hit.Rescued and the 8-bit saturation counters
// stay zero). BackendModeled forces the instrumented vek machine with
// its 8/16/32-bit saturation ladder (required for instruction tallies;
// traceback and position tracking always use it). Figure and profiling
// runs that instrument the pipeline resolve Auto back to the modeled
// backend.
func WithBackend(b Backend) Option {
	return func(a *Aligner) error {
		switch b {
		case BackendAuto, BackendModeled, BackendNative:
			a.backend = b
			return nil
		}
		return fmt.Errorf("swvec: unknown backend %d", uint8(b))
	}
}

// WithKernel selects the kernel family of the modeled backend's
// alignments and searches. The default (KernelAuto) runs the diagonal
// family — the resolved choice is reported in SearchResult.Kernel —
// while the explicit values force a family everywhere it applies: the
// striped families serve score-only affine-gap alignments, so
// traceback and linear-gap calls run the diagonal kernels regardless.
// A kernel family is a modeled-backend choice: the native backend
// ignores it, and its SearchResult.Kernel reads KernelAuto.
func WithKernel(k Kernel) Option {
	return func(a *Aligner) error {
		switch k {
		case KernelAuto, KernelDiagonal, KernelStriped, KernelLazyF:
			a.kernel = k
			return nil
		}
		return fmt.Errorf("swvec: unknown kernel %d", uint8(k))
	}
}

// New returns an Aligner with BLOSUM62 and default protein gaps,
// modified by the options.
func New(opts ...Option) (*Aligner, error) {
	a := &Aligner{mat: submat.Blosum62(), gaps: aln.DefaultGaps()}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// encode validates and encodes a raw residue sequence.
func (a *Aligner) encode(seq []byte) ([]uint8, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("swvec: empty sequence")
	}
	alpha := a.mat.Alphabet()
	if err := alpha.Validate(seq); err != nil {
		return nil, err
	}
	return alpha.Encode(seq), nil
}

// ValidateSequence checks that seq is non-empty and every residue is
// valid under the aligner's alphabet, without running an alignment.
// Servers use it to reject a bad request at admission instead of
// poisoning the batch it would have joined.
func (a *Aligner) ValidateSequence(seq []byte) error {
	_, err := a.encode(seq)
	return err
}

// Score computes the optimal local alignment score of query against
// target: with the exact 32-bit pair kernel on the native backend (the
// default), with the adaptive 8/16/32-bit pair kernels on modeled.
func (a *Aligner) Score(query, target []byte) (int32, error) {
	q, err := a.encode(query)
	if err != nil {
		return 0, err
	}
	d, err := a.encode(target)
	if err != nil {
		return 0, err
	}
	res, _, err := core.AlignPairAdaptive(vek.Bare, q, d, a.mat, core.PairOptions{Gaps: a.gaps, Backend: a.pairBackend(), Kernel: a.kernel})
	if err != nil {
		return 0, err
	}
	return res.Score, nil
}

// Align computes the optimal local alignment with full traceback. The
// traceback runs at 16 bits, so a pair whose score passes 32767 has no
// exact trace: Align then returns an error that names the exact score,
// never a clamped alignment.
func (a *Aligner) Align(query, target []byte) (*Alignment, error) {
	q, err := a.encode(query)
	if err != nil {
		return nil, err
	}
	d, err := a.encode(target)
	if err != nil {
		return nil, err
	}
	res, tb, err := core.AlignPair16(vek.Bare, q, d, a.mat, core.PairOptions{Gaps: a.gaps, Traceback: true})
	if err != nil {
		return nil, err
	}
	if res.Saturated {
		exact, err := core.AlignPair32(vek.Bare, q, d, a.mat, core.PairOptions{Gaps: a.gaps, Backend: core.BackendNative})
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("swvec: alignment score %d is past the 16-bit traceback limit of %d", exact.Score, math.MaxInt16)
	}
	return tb.Walk(res.EndQ, res.EndD, res.Score)
}

// Search aligns query against every database sequence with the
// high-throughput streaming batch pipeline: batches are transposed on
// demand and aligned by one worker pool. On the native backend every
// lane is scored exactly on the first pass; on modeled a batch runs at
// 8 bits, and the worker that finds a saturated lane rescores it on
// its own at 16 bits (and at 32 past int16) before it takes the next
// batch.
func (a *Aligner) Search(query []byte, db []Sequence) (*SearchResult, error) {
	return a.SearchContext(context.Background(), query, db)
}

// SearchContext is Search with cancellation: when ctx is canceled or
// times out, the pipeline stops producing batches, drains its workers,
// and returns the partial SearchResult together with an error wrapping
// ctx.Err(). Result.Stats always holds a consistent per-stage
// snapshot; no goroutines outlive the call.
func (a *Aligner) SearchContext(ctx context.Context, query []byte, db []Sequence) (*SearchResult, error) {
	q, err := a.encode(query)
	if err != nil {
		return nil, err
	}
	return sched.SearchContext(ctx, q, db, a.mat, a.schedOptions())
}

// SearchAll aligns every query against every database sequence
// (the centralized-server scenario) on Search's streaming pipeline:
// each transposed batch is aligned for every query in one call, so the
// batch's layout and score scratch are shared across the query set.
func (a *Aligner) SearchAll(queries [][]byte, db []Sequence) (*MultiSearchResult, error) {
	return a.SearchAllContext(context.Background(), queries, db)
}

// SearchAllContext is SearchAll with cancellation: on ctx cancellation
// or deadline the pipeline stops producing batches, the queued ones
// drain unprocessed, and the partial MultiSearchResult returns together
// with an error wrapping ctx.Err(). Result.Stats always holds a
// consistent per-stage snapshot; no goroutines outlive the call.
func (a *Aligner) SearchAllContext(ctx context.Context, queries [][]byte, db []Sequence) (*MultiSearchResult, error) {
	encoded := make([][]uint8, len(queries))
	for i, q := range queries {
		e, err := a.encode(q)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		encoded[i] = e
	}
	return sched.MultiSearchContext(ctx, encoded, db, a.mat, a.schedOptions())
}

// Matrix returns the aligner's substitution matrix.
func (a *Aligner) Matrix() *Matrix { return a.mat }

// Gaps returns the aligner's gap model.
func (a *Aligner) Gaps() Gaps { return a.gaps }

func (a *Aligner) schedOptions() sched.Options {
	return sched.Options{
		Gaps:         a.gaps,
		Threads:      a.threads,
		SortByLength: a.sortLen,
		Width:        a.width,
		Backend:      a.backend,
		Kernel:       a.kernel,
	}
}

// pairBackend resolves the aligner's backend for the pair entry points,
// which have no instrumentation: Auto means native.
func (a *Aligner) pairBackend() Backend {
	if a.backend != BackendAuto {
		return a.backend
	}
	return BackendNative
}
