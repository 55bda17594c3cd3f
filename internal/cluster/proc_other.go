//go:build !linux

package cluster

import "os/exec"

// dieWithParent is a no-op: only Linux has a parent-death signal.
func dieWithParent(*exec.Cmd) {}
