package xmlac_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

// The differential update harness: the confidence layer that makes in-place
// updates shippable. For every random edit of every random document it
// checks, edit by edit, that an update-then-view is byte-identical to a
// from-scratch Protect of the edited tree — for all three hospital profiles,
// both locally and through a remote SOE client whose chunk cache re-syncs
// over the wire — with equal SOE metrics. Any divergence (a stale chunk
// served from a cache, a Merkle root not rebuilt, a Skip-index entry left
// behind) shows up as a byte or counter mismatch here.

// harnessRng is a tiny deterministic generator (the harness must replay
// identically from a failure's sequence number).
type harnessRng struct{ state uint64 }

func (r *harnessRng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *harnessRng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *harnessRng) digits(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('0' + r.intn(10))
	}
	return string(out)
}

// editSite is one element of the tree with the location path selecting it.
type editSite struct {
	path   string
	node   *xmlstream.Node
	isRoot bool
}

// collectSites enumerates every element of the serialized document with its
// Edit path (the public API does not expose the tree, so the harness walks a
// re-parse — identical element structure by construction).
func collectSites(xml string) []editSite {
	root, err := xmlstream.ParseTree(bytes.NewReader([]byte(xml)))
	if err != nil {
		panic(err)
	}
	var sites []editSite
	var walk func(n *xmlstream.Node, path string)
	walk = func(n *xmlstream.Node, path string) {
		sites = append(sites, editSite{path: path, node: n, isRoot: path == "/"+n.Name})
		seen := map[string]int{}
		for _, c := range n.Children {
			if c.Kind != xmlstream.ElementNode {
				continue
			}
			seen[c.Name]++
			walk(c, fmt.Sprintf("%s/%s[%d]", path, c.Name, seen[c.Name]))
		}
	}
	walk(root, "/"+root.Name)
	return sites
}

// randomEdit draws one edit valid against the current tree. The mix covers
// both Update regimes: same-length text splices (the in-place fast path) and
// length-changing or structural edits (the re-encode path).
func randomEdit(r *harnessRng, sites []editSite) xmlac.Edit {
	site := sites[r.intn(len(sites))]
	switch k := r.intn(10); {
	case k < 4: // same-length set-text (fast path) on a leaf-ish site
		cur := site.node.Text()
		n := len(cur)
		if n == 0 {
			n = 6
		}
		return xmlac.Edit{Op: xmlac.EditSetText, Path: site.path, Text: r.digits(n)}
	case k < 6: // length-changing set-text
		return xmlac.Edit{Op: xmlac.EditSetText, Path: site.path, Text: r.digits(1 + r.intn(24))}
	case k < 8: // insert a small subtree
		return xmlac.Edit{Op: xmlac.EditInsert, Path: site.path,
			XML: fmt.Sprintf("<Note><Id>N%s</Id><Body>%s</Body></Note>", r.digits(5), r.digits(8+r.intn(30)))}
	case k < 9: // replace (never the root)
		if site.isRoot {
			return xmlac.Edit{Op: xmlac.EditSetText, Path: site.path, Text: r.digits(4)}
		}
		return xmlac.Edit{Op: xmlac.EditReplace, Path: site.path,
			XML: fmt.Sprintf("<Swapped><Was>%s</Was><Now>%s</Now></Swapped>", site.node.Name, r.digits(6+r.intn(20)))}
	default: // delete (never the root)
		if site.isRoot {
			return xmlac.Edit{Op: xmlac.EditSetText, Path: site.path, Text: r.digits(4)}
		}
		return xmlac.Edit{Op: xmlac.EditDelete, Path: site.path}
	}
}

// zeroWire blanks the fields that legitimately differ between a local and a
// remote evaluation of the same document (transfer accounting and wall-clock
// first-byte timing); every SOE counter must still match exactly.
func zeroWire(m xmlac.Metrics) xmlac.Metrics {
	m.BytesOnWire = 0
	m.RoundTrips = 0
	m.ChunksReused = 0
	m.TimeToFirstByte = 0
	m.Duration = 0
	return m
}

func TestDifferentialUpdateHarness(t *testing.T) {
	sequences := 100
	if testing.Short() {
		sequences = 20
	}
	const editsPerSequence = 3
	profiles := map[string]xmlac.Policy{
		"secretary":  xmlac.SecretaryPolicy(),
		"doctor":     xmlac.DoctorPolicy("DrA"),
		"researcher": xmlac.ResearcherPolicy(),
	}
	compiled := map[string]*xmlac.CompiledPolicy{}
	for name, p := range profiles {
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		compiled[name] = cp
	}

	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := xmlac.DeriveKey("xmlac-serve default key for differential")

	for seq := 0; seq < sequences; seq++ {
		rng := &harnessRng{state: uint64(0xD1F + seq)}
		folders := 3 + rng.intn(4)
		xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, uint64(1000+seq)), false)

		// The live document: protected once, then updated in place. The
		// server holds its own copy of the same document (same default key
		// derivation), updated through the same edits, serving the remote
		// client.
		liveDoc, err := xmlac.ParseDocumentString(xml)
		if err != nil {
			t.Fatal(err)
		}
		live, err := xmlac.Protect(liveDoc, key, xmlac.SchemeECBMHT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Store().RegisterXML("differential", xml, "", xmlac.SchemeECBMHT); err != nil {
			t.Fatal(err)
		}
		remoteDoc, err := xmlac.OpenRemote(ts.URL+"/docs/differential", key)
		if err != nil {
			t.Fatal(err)
		}
		// The mirror: a plain document the same edits are applied to with
		// the reference ApplyEdits, re-protected from scratch after every
		// edit — the ground truth Update must match.
		mirror, err := xmlac.ParseDocumentString(xml)
		if err != nil {
			t.Fatal(err)
		}
		mirrorXML := xml

		for step := 0; step < editsPerSequence; step++ {
			edit := randomEdit(rng, collectSites(mirrorXML))
			if _, _, err := live.Update(key, []xmlac.Edit{edit}); err != nil {
				t.Fatalf("seq %d step %d: update: %v (edit %+v)", seq, step, err, edit)
			}
			entry, err := srv.Store().Entry("differential")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := entry.Update([]xmlac.Edit{edit}, nil); err != nil {
				t.Fatalf("seq %d step %d: server update: %v", seq, step, err)
			}
			if err := mirror.ApplyEdits(edit); err != nil {
				t.Fatalf("seq %d step %d: mirror: %v", seq, step, err)
			}
			mirrorXML = mirror.XML()
			scratchDoc, err := xmlac.ParseDocumentString(mirrorXML)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := xmlac.Protect(scratchDoc, key, xmlac.SchemeECBMHT)
			if err != nil {
				t.Fatalf("seq %d step %d: from-scratch protect: %v", seq, step, err)
			}
			if lv, sv := live.Version(), uint64(step+2); lv != sv {
				t.Fatalf("seq %d step %d: live version %d, want %d", seq, step, lv, sv)
			}

			// The remote client re-syncs its chunk cache to the new version
			// (delta-driven after the first step).
			if changed, err := remoteDoc.Revalidate(); err != nil || !changed {
				t.Fatalf("seq %d step %d: revalidate: changed=%v err=%v", seq, step, changed, err)
			}

			for name, cp := range compiled {
				var scratchBuf bytes.Buffer
				_, scratchMetrics, err := scratch.View(context.Background(), key, cp, xmlac.ViewOptions{}, &scratchBuf)
				if err != nil {
					t.Fatalf("seq %d step %d %s: scratch view: %v", seq, step, name, err)
				}
				var liveBuf bytes.Buffer
				_, liveMetrics, err := live.View(context.Background(), key, cp, xmlac.ViewOptions{}, &liveBuf)
				if err != nil {
					t.Fatalf("seq %d step %d %s: updated view: %v", seq, step, name, err)
				}
				if !bytes.Equal(liveBuf.Bytes(), scratchBuf.Bytes()) {
					t.Fatalf("seq %d step %d %s: update-then-view differs from protect-from-scratch (%d vs %d bytes)\nedit: %+v",
						seq, step, name, liveBuf.Len(), scratchBuf.Len(), edit)
				}
				if zeroWire(*liveMetrics) != zeroWire(*scratchMetrics) {
					t.Fatalf("seq %d step %d %s: SOE metrics diverge:\nupdated: %+v\nscratch: %+v",
						seq, step, name, liveMetrics, scratchMetrics)
				}
				var remoteBuf bytes.Buffer
				_, remoteMetrics, err := remoteDoc.View(context.Background(), cp, xmlac.ViewOptions{}, &remoteBuf)
				if err != nil {
					t.Fatalf("seq %d step %d %s: remote view: %v", seq, step, name, err)
				}
				if !bytes.Equal(remoteBuf.Bytes(), scratchBuf.Bytes()) {
					t.Fatalf("seq %d step %d %s: remote view differs from protect-from-scratch (%d vs %d bytes)",
						seq, step, name, remoteBuf.Len(), scratchBuf.Len())
				}
				if zeroWire(*remoteMetrics) != zeroWire(*scratchMetrics) {
					t.Fatalf("seq %d step %d %s: remote SOE metrics diverge:\nremote: %+v\nscratch: %+v",
						seq, step, name, remoteMetrics, scratchMetrics)
				}
			}
		}
	}
}
