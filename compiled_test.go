package xmlac

import (
	"context"
	"sync"
	"testing"
)

// The parental-control guide of examples/parentalcontrol, inlined so the
// parity tests cover a second document shape (attribute-free programme
// guide) besides the hospital documents.
const sampleGuide = `<guide>
  <channel><program><title>Cartoon Morning</title><rating>all</rating></program>
    <program><title>Midnight Thriller</title><rating>18</rating></program></channel>
  <billing><card>4970-xxxx-xxxx-1234</card></billing>
</guide>`

// parentalPolicy is the teenager policy of the parental-control example.
func parentalPolicy() Policy {
	return Policy{Subject: "teen", Rules: []Rule{
		{Sign: "+", Object: "//channel"},
		{Sign: "-", Object: "//program[rating=18]"},
		{Sign: "-", Object: "//billing"},
	}}
}

// TestCompiledPolicyParity asserts the compile-once/evaluate-many contract:
// a view of a CompiledPolicy is byte-identical to EvaluateDocument, the
// plaintext reference, on the declarative policy, across the hospital,
// parental-control and researcher policies, and repeated views of the same
// CompiledPolicy report identical metrics.
func TestCompiledPolicyParity(t *testing.T) {
	cases := []struct {
		name   string
		xml    string
		policy Policy
		opts   ViewOptions
	}{
		{"hospital-doctor", sampleHospital, DoctorPolicy("DrA"), ViewOptions{}},
		{"hospital-secretary", sampleHospital, SecretaryPolicy(), ViewOptions{}},
		{"hospital-researcher", sampleHospital, ResearcherPolicy("G3"), ViewOptions{}},
		{"hospital-doctor-query", sampleHospital, DoctorPolicy("DrA"), ViewOptions{Query: "//Folder[Admin/Age > 40]"}},
		{"parental-teen", sampleGuide, parentalPolicy(), ViewOptions{}},
		{"parental-teen-dummy", sampleGuide, parentalPolicy(), ViewOptions{DummyDeniedNames: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := ParseDocumentString(tc.xml)
			if err != nil {
				t.Fatal(err)
			}
			key := DeriveKey("parity")
			prot, err := Protect(doc, key, SchemeECBMHT)
			if err != nil {
				t.Fatal(err)
			}
			wantView, err := EvaluateDocument(doc, tc.policy, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := tc.policy.Compile()
			if err != nil {
				t.Fatal(err)
			}
			// Evaluate the same compiled policy several times: reuse must not
			// leak state between runs.
			var wantMetrics *Metrics
			for i := 0; i < 3; i++ {
				gotView, gotMetrics, err := prot.View(context.Background(), key, cp, tc.opts, nil)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if gotView.XML() != wantView.XML() {
					t.Fatalf("run %d: compiled view differs:\n got %s\nwant %s", i, gotView.XML(), wantView.XML())
				}
				if wantMetrics == nil {
					wantMetrics = gotMetrics
					continue
				}
				got, want := *gotMetrics, *wantMetrics
				got.Duration, want.Duration = 0, 0
				if got != want {
					t.Fatalf("run %d: metrics differ:\n got %+v\nwant %+v", i, gotMetrics, wantMetrics)
				}
			}
		})
	}
}

// TestCompiledPolicyConcurrentReuse shares one CompiledPolicy across many
// goroutines evaluating concurrently (the server's usage pattern); run under
// -race this pins down the immutability of the compiled automata.
func TestCompiledPolicyConcurrentReuse(t *testing.T) {
	doc, err := ParseDocumentString(sampleHospital)
	if err != nil {
		t.Fatal(err)
	}
	key := DeriveKey("parity")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := prot.View(context.Background(), key, cp, ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, err := prot.View(context.Background(), key, cp, ViewOptions{}, nil)
				if err != nil {
					errCh <- err
					return
				}
				if got.XML() != want.XML() {
					errCh <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent compiled evaluation produced a different view")

type errorString string

func (e errorString) Error() string { return string(e) }
