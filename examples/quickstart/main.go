// Quickstart: protect a small XML document, then evaluate two different
// access-control policies over the encrypted form and print the authorized
// views.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"xmlac"
)

const document = `
<addressbook>
  <contact>
    <name>Alice Martin</name>
    <phone>555-0100</phone>
    <group>family</group>
    <notes>allergic to penicillin</notes>
  </contact>
  <contact>
    <name>Bob Durand</name>
    <phone>555-0101</phone>
    <group>work</group>
    <notes>prefers email</notes>
  </contact>
</addressbook>`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	doc, err := xmlac.ParseDocumentString(document)
	if err != nil {
		return err
	}

	// The publisher encrypts the document once; the key would normally be
	// provisioned to client devices through a secure channel.
	key := xmlac.DeriveKey("a passphrase shared out of band")
	protected, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "protected document: %d bytes (encrypted, indexed, tamper-evident)\n\n", protected.Size())

	// A family member sees everything except work contacts' notes.
	family := xmlac.Policy{
		Subject: "family-member",
		Rules: []xmlac.Rule{
			{Sign: "+", Object: "//contact"},
			{Sign: "-", Object: "//contact[group=work]/notes"},
		},
	}
	// A colleague only sees work contacts, without personal notes.
	colleague := xmlac.Policy{
		Subject: "colleague",
		Rules: []xmlac.Rule{
			{Sign: "+", Object: "//contact[group=work]"},
			{Sign: "-", Object: "//notes"},
		},
	}

	// The views are streamed: authorized XML is written to w while the
	// encrypted document is still being scanned, so nothing is ever
	// materialized — neither here nor inside the SOE.
	for _, p := range []xmlac.Policy{family, colleague} {
		cp, err := p.Compile()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- view for %s ---\n", p.Subject)
		_, metrics, err := protected.View(context.Background(), key, cp, xmlac.ViewOptions{Indent: true}, w)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "(SOE transferred %d bytes, skipped %d bytes of prohibited data, first byte after %s)\n\n",
			metrics.BytesTransferred, metrics.BytesSkipped, metrics.TimeToFirstByte)
	}
	return nil
}
