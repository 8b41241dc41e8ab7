// Stream query: the pull scenario of the paper. The client does not want the
// whole authorized view but the answer to an XPath query; the query is
// evaluated inside the secure environment together with the access-control
// policy, so its predicates can only observe authorized data and the result
// is exactly the intersection of the query scope with the authorized view.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	root := dataset.HospitalFolders(60, 7)
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(root, false))
	if err != nil {
		return err
	}
	key := xmlac.DeriveKey("hospital master key")
	protected, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		return err
	}

	ctx := context.Background()
	doctor, err := xmlac.DoctorPolicy("DrB").Compile()
	if err != nil {
		return err
	}
	queries := []string{
		"//Folder[Admin/Age > 75]",
		"//Folder[MedActs/Act/RPhys = DrB]/Admin",
		"//Folder[Admin/Age > 120]", // matches nothing
	}
	// Each query result is streamed out of the SOE; a counting writer stands
	// in for the consumer, so only the result size is retained here.
	for _, q := range queries {
		var cw countingWriter
		_, metrics, err := protected.View(ctx, key, doctor, xmlac.ViewOptions{Query: q}, &cw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "query %-42s -> %6d B of result, %6d B transferred, %6d B skipped\n",
			q, cw.n, metrics.BytesTransferred, metrics.BytesSkipped)
	}

	// The same query issued by the secretary returns only what her own
	// access rights allow: the medical predicate can never be satisfied from
	// data she is not allowed to see.
	secretary, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		return err
	}
	var cw countingWriter
	if _, _, err := protected.View(ctx, key, secretary, xmlac.ViewOptions{
		Query: "//Folder[MedActs/Act/RPhys = DrB]/Admin",
	}, &cw); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsecretary issuing the medical query gets %d bytes (the predicate reads denied data)\n", cw.n)
	return nil
}

// countingWriter measures a streamed view without retaining it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
