// Hospital: the motivating example of the paper. A synthetic medical-folder
// document is protected once and three user profiles — secretary, doctor and
// medical researcher — each obtain their own authorized view from the same
// encrypted document, with the Skip index keeping the prohibited parts out
// of the client's secure environment.
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
	// Generate a small hospital document (the xmlac-datagen command produces
	// larger ones).
	root := dataset.HospitalFolders(40, 2026)
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(root, false))
	if err != nil {
		return err
	}
	stats := doc.Stats()
	fmt.Fprintf(w, "hospital document: %d folders, %d elements, %d bytes\n\n",
		40, stats.Elements, stats.SerializedSize)

	key := xmlac.DeriveKey("hospital master key")
	protected, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		return err
	}

	profiles := []struct {
		name   string
		policy xmlac.Policy
	}{
		{"secretary", xmlac.SecretaryPolicy()},
		{"doctor DrA", xmlac.DoctorPolicy("DrA")},
		{"doctor DrH (part time)", xmlac.DoctorPolicy("DrH")},
		{"researcher (protocols G1..G10)", xmlac.ResearcherPolicy("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10")},
	}
	// Each view is streamed out of the evaluator; a counting writer stands in
	// for the consumer, so only the view's size is retained here.
	ctx := context.Background()
	for _, p := range profiles {
		cp, err := p.policy.Compile()
		if err != nil {
			return err
		}
		var cw countingWriter
		_, metrics, err := protected.View(ctx, key, cp, xmlac.ViewOptions{}, &cw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-32s view %7d B | transferred %7d B | skipped %7d B | est. smart card %.2fs\n",
			p.name, cw.n, metrics.BytesTransferred, metrics.BytesSkipped, metrics.EstimatedSmartCardSeconds)
	}

	// The doctor can additionally pull only the folders of elderly patients:
	// the query is intersected with her access rights inside the SOE.
	doctor, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		return err
	}
	var cw countingWriter
	if _, _, err := protected.View(ctx, key, doctor, xmlac.ViewOptions{
		Query: "//Folder[Admin/Age > 70]",
	}, &cw); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndoctor DrA, query //Folder[Admin/Age > 70]: %d bytes of result\n", cw.n)
	return nil
}

// countingWriter measures a streamed view without retaining it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
