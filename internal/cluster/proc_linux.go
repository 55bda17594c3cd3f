//go:build linux

package cluster

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL the shard when its spawner dies,
// so a killed router leaves no orphaned shards behind.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
