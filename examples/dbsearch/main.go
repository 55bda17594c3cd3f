// dbsearch demonstrates usage scenario 1 (§II-C): one protein query
// streamed against a database. The database is batched into
// 32-sequence transposed blocks, and the native backend scores every
// lane of every batch exactly, across all CPU cores. On the modeled
// backend (swvec.WithBackend(swvec.BackendModeled)) the paper's 8-bit
// interleaved engine scores the batches instead, and its saturated
// lanes are rescued at 16 bits.
package main

import (
	"fmt"
	"log"

	"swvec"
)

func main() {
	// A synthetic Swiss-Prot-like database; replace with
	// swvec.ReadFasta(file) for real data.
	db := swvec.GenerateDatabase(42, 2000)

	// Plant a known homolog so the search has a meaningful top hit:
	// the query is a fragment of database sequence 1234.
	query := db[1234].Residues[20:260]

	al, err := swvec.New(
		swvec.WithGaps(11, 1),
		swvec.WithLengthSortedBatches(), // offline layout optimization
	)
	if err != nil {
		log.Fatal(err)
	}

	res, err := al.Search(query, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d sequences (%d DP cells) in %v — %.3f GCUPS, %d lanes rescued at 16 bits\n",
		len(db), res.Cells, res.Elapsed, res.GCUPS(), res.Rescued)
	fmt.Println("top hits:")
	for rank, h := range res.TopHits(5) {
		marker := ""
		if h.SeqIndex == 1234 {
			marker = "  <- planted homolog"
		}
		fmt.Printf("  %d. score %5d  %s (%d aa)%s\n",
			rank+1, h.Score, db[h.SeqIndex].ID, db[h.SeqIndex].Len(), marker)
	}
}
