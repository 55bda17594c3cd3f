package swvec_test

import (
	"fmt"
	"log"

	"swvec"
)

// ExampleAligner_Align shows a pairwise protein alignment with
// traceback.
func ExampleAligner_Align() {
	al, err := swvec.New(swvec.WithGaps(11, 1))
	if err != nil {
		log.Fatal(err)
	}
	a, err := al.Align(
		[]byte("MKVLAWGQHEAGAWGHEE"),
		[]byte("MKVLAWQHEAGAWGHEE"), // one residue deleted
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a.CigarString())
	// Output: 6M1I11M
}

// ExampleAligner_Score shows the score-only call: on the default
// native backend, one exact 32-bit pass with no traceback.
func ExampleAligner_Score() {
	al, err := swvec.New()
	if err != nil {
		log.Fatal(err)
	}
	score, err := al.Score([]byte("HEAGAWGHEE"), []byte("PAWHEAE"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(score > 0)
	// Output: true
}

// ExampleAligner_Search shows a database search with the batch engine.
func ExampleAligner_Search() {
	al, err := swvec.New(swvec.WithLengthSortedBatches(), swvec.WithThreads(1))
	if err != nil {
		log.Fatal(err)
	}
	db := swvec.GenerateDatabase(42, 64)
	query := db[7].Residues[:60] // a fragment of a known entry
	res, err := al.Search(query, db)
	if err != nil {
		log.Fatal(err)
	}
	best := res.TopHits(1)[0]
	fmt.Println(db[best.SeqIndex].ID == db[7].ID)
	// Output: true
}

// ExampleMatchMismatch shows fixed-score alignment (the gather-free
// fast path).
func ExampleMatchMismatch() {
	al, err := swvec.New(swvec.WithMatrix(swvec.MatchMismatch(2, -1)), swvec.WithGaps(3, 1))
	if err != nil {
		log.Fatal(err)
	}
	score, err := al.Score([]byte("ACDEF"), []byte("ACDEF"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(score)
	// Output: 10
}
