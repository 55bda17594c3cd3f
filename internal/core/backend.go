package core

import "fmt"

// Backend selects which execution engine runs an alignment.
//
// The modeled backend is the paper apparatus: kernels interpret the
// vek vector machine op by op, so every issue can be tallied and fed
// to the architecture cost model, and its 8- and 16-bit kernels
// saturate and escalate. The native backend runs one kernel,
// native.Pair32, for every score-only call: the exact score on the
// first pass (enforced against the scalar reference and the modeled
// adaptive ladder by the differential suite and FuzzNativeVsModeled),
// never a saturation flag, no kernel family, and no per-op
// accounting. Traceback and position tracking run modeled on either
// backend. Figures and profiling runs therefore need the modeled
// backend; serving traffic wants the native one.
type Backend uint8

const (
	// BackendAuto lets the caller's layer pick: the search scheduler
	// resolves it to Native unless instrumentation was requested; the
	// core entry points treat it as Modeled, keeping the paper kernels
	// the default for direct callers.
	BackendAuto Backend = iota
	// BackendModeled interprets the vek machine (cost-model accurate).
	BackendModeled
	// BackendNative runs the exact kernel in internal/native.
	BackendNative
)

// String returns the flag-style name of the backend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendModeled:
		return "modeled"
	case BackendNative:
		return "native"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend parses a flag-style backend name ("auto", "modeled",
// "native"; the empty string means auto).
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "modeled":
		return BackendModeled, nil
	case "native":
		return BackendNative, nil
	}
	return BackendAuto, fmt.Errorf("core: unknown backend %q (want auto, modeled, or native)", s)
}
