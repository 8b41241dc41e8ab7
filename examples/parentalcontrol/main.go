// Parental control: one of the application scenarios motivating the paper.
// A content provider publishes an encrypted programme guide; each family
// device holds the same encrypted document but a per-child policy evaluated
// inside the device's secure element filters what the child can browse —
// without the provider having to know or precompute each family's rules.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"xmlac"
)

const guide = `
<guide>
  <channel name="kids-tv">
    <program>
      <title>Cartoon Morning</title>
      <rating>all</rating>
      <description>Harmless fun for everyone.</description>
    </program>
    <program>
      <title>Teen Drama</title>
      <rating>12</rating>
      <description>Mild peril and strong feelings.</description>
    </program>
  </channel>
  <channel name="movies">
    <program>
      <title>Space Adventure</title>
      <rating>all</rating>
      <description>A family-friendly space epic.</description>
    </program>
    <program>
      <title>Midnight Thriller</title>
      <rating>18</rating>
      <description>Graphic violence, adults only.</description>
    </program>
  </channel>
  <billing>
    <card>4970-xxxx-xxxx-1234</card>
  </billing>
</guide>`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	doc, err := xmlac.ParseDocumentString(guide)
	if err != nil {
		return err
	}
	key := xmlac.DeriveKey("set-top-box provisioning key")
	protected, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		return err
	}

	// The youngest child: only programmes rated "all", and obviously no
	// billing information.
	young := xmlac.Policy{
		Subject: "emma (age 7)",
		Rules: []xmlac.Rule{
			{Sign: "+", Object: "//program[rating=all]"},
			{Sign: "-", Object: "//billing"},
		},
	}
	// A teenager: everything except 18-rated programmes and billing data.
	teen := xmlac.Policy{
		Subject: "lucas (age 14)",
		Rules: []xmlac.Rule{
			{Sign: "+", Object: "//channel"},
			{Sign: "-", Object: "//program[rating=18]"},
			{Sign: "-", Object: "//billing"},
		},
	}
	// The parent: everything.
	parent := xmlac.Policy{
		Subject: "parent",
		Rules:   []xmlac.Rule{{Sign: "+", Object: "/guide"}},
	}

	// The guide is streamed to each device as it is filtered; the skip
	// accounting is only known once the scan finished, so it trails the view.
	for _, p := range []xmlac.Policy{young, teen, parent} {
		cp, err := p.Compile()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "=== view for %s ===\n", p.Subject)
		_, metrics, err := protected.View(context.Background(), key, cp, xmlac.ViewOptions{Indent: true}, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "(skipped %d prohibited subtrees)\n\n", metrics.SubtreesSkipped)
	}
	return nil
}
