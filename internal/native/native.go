// Package native holds the compiled execution backend's one kernel:
// Pair32, the exact score-only Smith-Waterman recurrence for one query
// against one database sequence, in plain Go over two int32 rows.
//
// Go has no SIMD, so on this backend a vector lane would only be an
// unroll factor. The paper's inter-sequence 8-bit batches, its
// 8 -> 16 -> 32-bit saturation ladder and its striped layouts pay for
// themselves with vector slots; here they would cost padding, empty
// lanes, per-cell clamps and rescues, and buy nothing back. Pair32
// needs no clamp and never saturates, so every native score is exact
// on the first pass and the search pipeline never rescues on this
// backend. The modeled kernels in internal/core keep the paper's
// layouts for the figures; FuzzNativeVsModeled in internal/core holds
// Pair32 to the scalar reference and to the modeled adaptive ladder.
//
// Pair32 traverses row-major, which the affine recurrence permits
// without changing any H value (the dependency structure is identical
// cell by cell). It always runs the affine recurrence: with
// Open == Extend that produces the same H stream as the reduced linear
// recurrence (E(i,j-1) <= H(i,j-1) inductively, so the E max collapses
// to H(i,j-1)-Extend), so one recurrence serves both gap models.
//
// The arithmetic is plain int32 with no clamps. aln.Gaps.Validate
// bounds both penalties at 2^29: E and F start at negInf32 = -2^29,
// every later E or F is at least -Open, and one more subtraction stays
// at or above -2^30, far from the int32 floor.
//
// The kernel never allocates; callers pass scratch rows (capacity is
// the only requirement — the kernel initializes them). It is annotated
// //sw:hotpath so swlint's hotpathalloc check gates it.
package native

import "swvec/internal/submat"

// negInf32 is the E/F boundary value, matching the modeled E32x8
// engine (vek.E32x8.NegInf).
const negInf32 = -1 << 29

// matRowMask masks a residue code into the padded substitution-matrix
// row width (submat.W == 32, a power of two): every masked code
// indexes a row in bounds, which is what keeps the inner score loop
// bounds-check free. Residue codes are already < submat.W, so the mask
// never changes a valid code.
const matRowMask = submat.W - 1

// Pair32 returns the optimal local alignment score of query q against
// database sequence dseq under affine gaps (open, ext). It carries
// H-diagonal, H-left and E-left in registers and streams the previous
// row's H and F through the caller's scratch rows; hRow and fRow need
// capacity for len(dseq) elements.
//
//sw:hotpath
func Pair32(q, dseq []uint8, mat *submat.Matrix, open, ext int32, hRow, fRow []int32) int32 {
	ds := dseq
	hr := hRow[:len(ds)]
	fr := fRow[:len(ds)]
	for j := range hr {
		hr[j] = 0
	}
	for j := range fr {
		fr[j] = negInf32
	}
	var best int32
	for i := 0; i < len(q); i++ {
		row := (*[submat.W]int8)(mat.Row(q[i]))
		hDiag := int32(0)
		hLeft := int32(0)
		eLeft := int32(negInf32)
		for j := 0; j < len(ds); j++ {
			sc := int32(row[ds[j]&matRowMask])
			hUp := hr[j]
			f := max(fr[j]-ext, hUp-open)
			e := max(eLeft-ext, hLeft-open)
			h := max(hDiag+sc, 0, e, f)
			hr[j] = h
			fr[j] = f
			hDiag = hUp
			hLeft = h
			eLeft = e
			if h > best {
				best = h
			}
		}
	}
	return best
}
