package core

import "fmt"

// Kernel selects which kernel family computes an alignment on the
// modeled backend.
//
// The diagonal family is the paper's anti-diagonal wavefront kernel —
// the apparatus every figure instruments. The striped family is
// Farrar's segmented-query layout: KernelStriped runs the classic
// speculative column pass with the data-dependent lazy-F correction
// loop, KernelLazyF runs Snytsar's deconstructed variant that replaces
// the loop with a fixed-cost weighted prefix-max scan plus one merge
// sweep. All three families produce bit-identical scores and
// saturation flags (enforced by FuzzKernelsVsDiagonal and the
// equivalence suite). A family is a modeled-backend choice: the native
// backend has one kernel, native.Pair32, and ignores it.
type Kernel uint8

const (
	// KernelAuto lets the caller's layer pick: the search scheduler
	// resolves it to Diagonal on the modeled backend and leaves it Auto
	// on native (see sched.Options); the core entry points treat it as
	// Diagonal, keeping the paper kernel the default for direct callers.
	KernelAuto Kernel = iota
	// KernelDiagonal runs the anti-diagonal wavefront kernel.
	KernelDiagonal
	// KernelStriped runs Farrar's striped kernel with the classic
	// lazy-F correction loop.
	KernelStriped
	// KernelLazyF runs the striped kernel with Snytsar's deconstructed
	// lazy-F correction (prefix-max scan instead of the loop).
	KernelLazyF
)

// Striped reports whether k is a member of the striped family (either
// correction variant).
func (k Kernel) Striped() bool {
	return k == KernelStriped || k == KernelLazyF
}

// String returns the flag-style name of the kernel family.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDiagonal:
		return "diagonal"
	case KernelStriped:
		return "striped"
	case KernelLazyF:
		return "lazyf"
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// ParseKernel parses a flag-style kernel name ("auto", "diagonal",
// "striped", "lazyf"; the empty string means auto).
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "diagonal", "diag":
		return KernelDiagonal, nil
	case "striped":
		return KernelStriped, nil
	case "lazyf", "lazy-f":
		return KernelLazyF, nil
	}
	return KernelAuto, fmt.Errorf("core: unknown kernel %q (want auto, diagonal, striped, or lazyf)", s)
}
