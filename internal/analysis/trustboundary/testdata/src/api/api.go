// Package api mirrors the xmlac root facade: the key-handling and
// evaluator entry points the server side must never reference.
package api

// Key mirrors the facade's key alias.
type Key []byte

// DeriveKey mirrors the facade's key derivation.
func DeriveKey(pass string) Key {
	k := make(Key, 16)
	for i := range k {
		k[i] = byte(len(pass) + i)
	}
	return k
}

// Policy mirrors the facade's declarative policy.
type Policy struct {
	Subject string
	Rules   []string
}

// ViewOptions mirrors the facade's per-view options.
type ViewOptions struct{ Query string }

// Evaluate mirrors a view entry point: it takes the denied types.
func Evaluate(doc []byte, p Policy, opts ViewOptions) []byte { return doc }

// Vault carries a method-form denied symbol.
type Vault struct{}

// Unseal stands in for a decrypt entry point.
func (Vault) Unseal(pass string) []byte { return []byte(pass) }
