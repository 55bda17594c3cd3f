// subroutine demonstrates usage scenario 3 (§II-C): Smith-Waterman as
// a library subroutine on small inputs, SSW style — small query and
// reference sets, full tracebacks, working set resident in cache. This
// is the mode downstream tools (read mappers, MSA pipelines) call in a
// hot loop.
package main

import (
	"fmt"
	"log"

	"swvec"
)

func main() {
	al, err := swvec.New(swvec.WithGaps(5, 1))
	if err != nil {
		log.Fatal(err)
	}

	// A miniature read-vs-reference problem: three "reads" against two
	// "reference" fragments, all protein for this demo.
	refs := []swvec.Sequence{
		{ID: "ref_A", Residues: []byte("MSTNPKPQRKTKRNTNRRPQDVKFPGGGQIVGGVYLLPRRGPRLGVRATRKTSERSQPRGRRQPIPKARR")},
		{ID: "ref_B", Residues: []byte("MAEPKSGGWLSKLFGRKEMRILMVGLDAAGKTTILYKLKLGEIVTTIPTIGFNVETVEYKNISFTVWDVGGQ")},
	}
	reads := [][]byte{
		[]byte("RRGPRLGVRATRKTSE"),              // exact fragment of ref_A
		[]byte("GLDAAGKTTILYKLNLGEIVT"),         // ref_B with one substitution
		[]byte("KFPGGGQIVGGVYLLWWPRRGPRLGVRAT"), // ref_A with an insertion
	}

	for ri, read := range reads {
		fmt.Printf("read %d (%d aa):\n", ri, len(read))
		for _, ref := range refs {
			a, err := al.Align(read, ref.Residues)
			if err != nil {
				log.Fatal(err)
			}
			if a.Score <= 0 {
				fmt.Printf("  vs %s: no local alignment\n", ref.ID)
				continue
			}
			fmt.Printf("  vs %s: score %3d at ref[%d..%d]  CIGAR %s\n",
				ref.ID, a.Score, a.BegD, a.EndD, a.CigarString())
		}
	}

	// The score-only call is what a mapper's filter stage would make:
	// one exact 32-bit pass on the native backend, no traceback.
	sc, err := al.Score(reads[0], refs[0].Residues)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfilter-stage score (exact 32-bit pass, no traceback): %d\n", sc)
}
