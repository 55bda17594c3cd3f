// Package serve is the wirecode fixture's serving front end: the only
// place CodeServed is referenced.
package serve

import "fix/internal/cluster"

// Refuse answers a refused request.
func Refuse() string { return cluster.CodeServed }
