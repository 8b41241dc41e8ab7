// Remote client: the paper's actual deployment model, end to end in one
// process. An untrusted blob server stores the encrypted hospital document
// (it never sees the key); a client-side Secure Operating Environment opens
// it with xmlac.OpenRemote and streams an authorized view, pulling
// ciphertext through HTTP range requests — so every byte the Skip index
// proves prohibited is a byte that never crosses the wire, not just a byte
// that is never decrypted.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- Publisher side: protect and publish the document. ----------------
	// The server only ever stores the encrypted container; the passphrase
	// stays with the publisher and its authorized clients.
	srv := server.New(server.Options{})
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(16, 21), false)
	if _, err := srv.Store().RegisterXML("hospital", xml, "shared out of band", xmlac.SchemeECBMHT); err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// --- Client side: a remote SOE per user. ------------------------------
	key := xmlac.DeriveKey("shared out of band")
	doc, err := xmlac.OpenRemote(ts.URL+"/docs/hospital", key)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "opened remote document: %d bytes encrypted on the server\n\n", doc.Size())

	for _, policy := range []xmlac.Policy{
		xmlac.SecretaryPolicy(),
		xmlac.DoctorPolicy("DrA"),
	} {
		// The view is streamed while ciphertext ranges are still being
		// pulled; a counting writer stands in for the consumer.
		cp, err := policy.Compile()
		if err != nil {
			return err
		}
		var cw countingWriter
		_, metrics, err := doc.View(context.Background(), cp, xmlac.ViewOptions{}, &cw)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "--- view for %s ---\n", policy.Subject)
		fmt.Fprintf(w, "view size: %d bytes, first byte after %s\n", cw.n, metrics.TimeToFirstByte.Round(time.Microsecond))
		fmt.Fprintf(w, "wire: %d bytes in %d round trips; the Skip index kept %d prohibited bytes off the network\n\n",
			metrics.BytesOnWire, metrics.RoundTrips, metrics.BytesSkipped)
	}

	wire, roundTrips := doc.WireStats()
	fmt.Fprintf(w, "total: %d wire bytes in %d round trips vs %d for one full download\n",
		wire, roundTrips, doc.Size())
	return nil
}

// countingWriter measures a streamed view without retaining it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
