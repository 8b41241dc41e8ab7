// Package server seeds the trust-boundary diagnostics: an untrusted-side
// package importing and referencing the denied client-side symbols.
package server

import (
	"vettest/api"
	"vettest/secure" // want `trust-boundary violation: vettest/server must not import vettest/secure`
)

type Store struct {
	key api.Key // want `trust-boundary violation: vettest/server must not reference vettest/api\.Key`
}

func (s *Store) Load(pass string) {
	s.key = api.DeriveKey(pass) // want `must not reference vettest/api\.DeriveKey`
	_ = secure.Derive(pass)
}

func open(v *api.Vault, pass string) []byte {
	return v.Unseal(pass) // want `must not reference vettest/api\.Vault\.Unseal`
}

// view is a store evaluating a view itself: naming the policy or the view
// options is the violation, even through an allowed entry point.
func view(blob []byte, subject string) []byte {
	p := api.Policy{Subject: subject}               // want `must not reference vettest/api\.Policy`
	return api.Evaluate(blob, p, api.ViewOptions{}) // want `must not reference vettest/api\.ViewOptions`
}
