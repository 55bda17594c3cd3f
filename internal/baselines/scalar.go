// Package baselines implements the Smith-Waterman kernels the paper
// compares against (§IV-H): a scalar golden reference, the Wozniak
// anti-diagonal kernel ("diag") and the prefix-scan kernel ("scan").
// Both vector kernels are built on the same emulated vector machine as
// the paper's kernel, mirroring Parasail's "modular functions within a
// unified framework" fairness argument. The third Parasail kernel,
// Farrar's striped one with its speculative lazy-F correction loop, is
// core's KernelStriped family.
package baselines

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
)

// ScalarAffine computes the optimal local alignment score of encoded
// query q against encoded database sequence d under the affine gap
// model, using the plain O(nm) Gotoh recurrence. It is the golden
// oracle every vector kernel is verified against.
func ScalarAffine(q, d []uint8, mat *submat.Matrix, g aln.Gaps) aln.ScoreResult {
	res := aln.ScoreResult{EndQ: -1, EndD: -1}
	if len(q) == 0 || len(d) == 0 {
		return res
	}
	// hRow[j] holds H(i-1, j) while computing row i; fCol[j] holds
	// F(i-1, j) (vertical gap state per column, the paper's F array
	// sized by the database).
	hRow := make([]int32, len(d)+1)
	fCol := make([]int32, len(d)+1)
	const negInf = int32(-1 << 30)
	for j := range fCol {
		fCol[j] = negInf
	}
	for i := 1; i <= len(q); i++ {
		var diag int32 // H(i-1, j-1)
		e := negInf    // E(i, j): horizontal gap state along the row
		var hCur int32 // H(i, j-1)
		for j := 1; j <= len(d); j++ {
			sc := int32(mat.Score(q[i-1], d[j-1]))
			h := diag + sc
			if h < 0 {
				h = 0
			}
			// Horizontal gap: extend e or open from H(i, j-1).
			e = maxI32(e-g.Extend, hCur-g.Open)
			// Vertical gap: extend fCol[j] or open from H(i-1, j).
			fCol[j] = maxI32(fCol[j]-g.Extend, hRow[j]-g.Open)
			if e > h {
				h = e
			}
			if fCol[j] > h {
				h = fCol[j]
			}
			diag = hRow[j]
			hRow[j] = h
			hCur = h
			if h > res.Score {
				res.Score = h
				res.EndQ = i - 1
				res.EndD = j - 1
			}
		}
	}
	return res
}

// ScalarLinear computes the optimal local alignment score under the
// linear gap model with per-residue cost ext.
func ScalarLinear(q, d []uint8, mat *submat.Matrix, ext int32) aln.ScoreResult {
	res := aln.ScoreResult{EndQ: -1, EndD: -1}
	if len(q) == 0 || len(d) == 0 {
		return res
	}
	hRow := make([]int32, len(d)+1)
	for i := 1; i <= len(q); i++ {
		var diag int32
		var hCur int32
		for j := 1; j <= len(d); j++ {
			sc := int32(mat.Score(q[i-1], d[j-1]))
			h := diag + sc
			if v := hCur - ext; v > h {
				h = v
			}
			if v := hRow[j] - ext; v > h {
				h = v
			}
			if h < 0 {
				h = 0
			}
			diag = hRow[j]
			hRow[j] = h
			hCur = h
			if h > res.Score {
				res.Score = h
				res.EndQ = i - 1
				res.EndD = j - 1
			}
		}
	}
	return res
}

// ScalarMatrix computes the full H matrix under the affine model and
// returns it as a (len(q)+1) x (len(d)+1) row-major slice together
// with the score result. Tests use it to validate traceback paths and
// the diagonal-linearized storage of the main kernel.
func ScalarMatrix(q, d []uint8, mat *submat.Matrix, g aln.Gaps) ([]int32, aln.ScoreResult) {
	rows, cols := len(q)+1, len(d)+1
	h := make([]int32, rows*cols)
	e := make([]int32, rows*cols)
	f := make([]int32, rows*cols)
	const negInf = int32(-1 << 30)
	for idx := range e {
		e[idx] = negInf
		f[idx] = negInf
	}
	res := aln.ScoreResult{EndQ: -1, EndD: -1}
	for i := 1; i < rows; i++ {
		for j := 1; j < cols; j++ {
			sc := int32(mat.Score(q[i-1], d[j-1]))
			best := h[(i-1)*cols+j-1] + sc
			if best < 0 {
				best = 0
			}
			e[i*cols+j] = maxI32(e[i*cols+j-1]-g.Extend, h[i*cols+j-1]-g.Open)
			f[i*cols+j] = maxI32(f[(i-1)*cols+j]-g.Extend, h[(i-1)*cols+j]-g.Open)
			if e[i*cols+j] > best {
				best = e[i*cols+j]
			}
			if f[i*cols+j] > best {
				best = f[i*cols+j]
			}
			h[i*cols+j] = best
			if best > res.Score {
				res.Score = best
				res.EndQ = i - 1
				res.EndD = j - 1
			}
		}
	}
	return h, res
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
