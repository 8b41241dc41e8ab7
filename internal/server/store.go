package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlac"
)

// ErrNotFound is returned for unknown documents.
var ErrNotFound = errors.New("server: not found")

// ErrRetired is returned by a mutation whose document entry a concurrent
// PUT replaced or DELETE removed before the mutation could apply: it lost
// the race, applied nothing and logged nothing.
var ErrRetired = errors.New("server: document was replaced or deleted concurrently")

// Store is the concurrency-safe registry of protected documents. Each
// document is protected (compressed, encrypted, integrity-protected) once at
// registration time and re-encrypted chunk by chunk by each PATCH; readers
// of its blob surface never lock out each other.
type Store struct {
	mu    sync.RWMutex
	docs  map[string]*DocumentEntry
	clock clock
}

// NewStore builds an empty store on the real clock.
func NewStore() *Store {
	return newStoreWithClock(nil)
}

// newStoreWithClock builds an empty store stamping times from c (nil selects
// the real clock). The server threads its injected clock through here so
// registration timestamps are deterministic under the fake clock.
func newStoreWithClock(c clock) *Store {
	if c == nil {
		c = realClock{}
	}
	return &Store{docs: make(map[string]*DocumentEntry), clock: c}
}

// DocumentEntry is one registered document with its key. The key is
// immutable after registration; the protected form is versioned — PATCH
// updates install new versions in place.
type DocumentEntry struct {
	ID        string
	Scheme    xmlac.Scheme
	Stats     xmlac.Stats
	CreatedAt time.Time

	prot *xmlac.Protected
	key  xmlac.Key
	// passphrase is the effective registration passphrase the key was derived
	// from. The persistence layer records it (trusted demo mode, like the key
	// itself: the single-machine configuration trusts the server host) so
	// recovery can re-derive the key with DeriveKey.
	passphrase string

	// updateMu orders every mutation of the entry end to end, its durable
	// record included: PATCHes (edit application, blob re-marshal), the
	// registration that published the entry and the PUT or DELETE that
	// retires it. The version chain stays linear and the log holds one
	// document id's records in the order they applied.
	updateMu sync.Mutex
	// retired marks an entry a PUT replaced or a DELETE removed; a mutation
	// that finds it set under updateMu lost the race (ErrRetired). Guarded by
	// updateMu.
	retired bool

	// cur is the published blob surface. Update and patch replay publish a
	// new surface per version; readers load it once.
	cur atomic.Pointer[surface]
}

// surface is one published version of an entry's blob surface: the
// marshalled container the store range-serves to remote SOE clients, its
// SHA-256, its strong entity tag (the quoted SHA-256, sent on
// GET /docs/{id}/blob and checked against If-None-Match, If-Match and
// If-Range) and its manifest. A surface is immutable once published. A
// handler loads the entry's surface once and answers from it alone, so no
// response pairs one version's entity tag with another version's manifest
// or leaf records.
type surface struct {
	blob []byte
	// sum is the blob's SHA-256, which a patch record carries so recovery
	// can check its reconstruction byte for byte.
	sum      [sha256.Size]byte
	etag     string
	manifest xmlac.DocumentManifest
	// leaves is the version's leaf table (the untrusted-terminal side of the
	// ECB-MHT Merkle protocol), range-served on GET /docs/{id}/hashes; nil
	// under the other schemes, which have none.
	leaves []byte
}

// newSurface builds the surface of one protected version from its
// marshalled container. prot must be at that version: the caller holds the
// entry's update lock, or builds the entry.
func newSurface(prot *xmlac.Protected, blob []byte, sum [sha256.Size]byte) *surface {
	return &surface{blob: blob, sum: sum, etag: etagOf(sum), manifest: prot.Manifest(), leaves: prot.LeafTable()}
}

// DocumentInfo is the externally visible summary of a registered document.
type DocumentInfo struct {
	ID             string    `json:"id"`
	Scheme         string    `json:"scheme"`
	Version        uint64    `json:"version"`
	ProtectedBytes int       `json:"protected_bytes"`
	Elements       int       `json:"elements"`
	MaxDepth       int       `json:"max_depth"`
	CreatedAt      time.Time `json:"created_at"`
}

// RegisterXML parses, protects and registers a document under the given id,
// replacing any previous document with that id. The key is derived from the
// passphrase; an empty passphrase derives a deterministic per-document
// default (fine for demos, not for production).
func (s *Store) RegisterXML(id, xmlText, passphrase string, scheme xmlac.Scheme) (*DocumentEntry, error) {
	return s.registerXML(id, xmlText, passphrase, scheme, nil)
}

// registerXML is RegisterXML with the commit hook install describes.
func (s *Store) registerXML(id, xmlText, passphrase string, scheme xmlac.Scheme, commit func(*DocumentEntry) error) (*DocumentEntry, error) {
	doc, err := xmlac.ParseDocumentString(xmlText)
	if err != nil {
		return nil, fmt.Errorf("server: parsing document %q: %w", id, err)
	}
	if passphrase == "" {
		passphrase = "xmlac-serve default key for " + id
	}
	key := xmlac.DeriveKey(passphrase)
	prot, err := xmlac.Protect(doc, key, scheme)
	if err != nil {
		return nil, fmt.Errorf("server: protecting document %q: %w", id, err)
	}
	reg := registerMeta{Scheme: string(scheme), Passphrase: passphrase, CreatedAt: s.clock.Now(), Stats: doc.Stats()}
	return s.install(id, reg, prot, prot.Marshal(), commit)
}

// install builds the entry of one protected container and publishes it
// under id, replacing any previous entry. Registration and recovery both
// come through here: the key is derived from the registration passphrase
// (trusted demo mode, the same single-machine configuration that holds the
// key in memory), and the ETag, manifest and version from the blob, so a
// recovered entry serves exactly what the live one did.
//
// The new entry is published holding its update lock, which is released
// only once the entry it replaces is retired and commit (when non-nil: the
// registration record) has run. So a mutation of the replaced entry either
// logged before the registration or finds the entry retired, and every
// mutation of the new entry logs after it. commit's error is returned with
// the published entry.
func (s *Store) install(id string, reg registerMeta, prot *xmlac.Protected, blob []byte, commit func(*DocumentEntry) error) (*DocumentEntry, error) {
	entry := &DocumentEntry{
		ID:         id,
		Scheme:     xmlac.Scheme(reg.Scheme),
		Stats:      reg.Stats,
		CreatedAt:  reg.CreatedAt,
		prot:       prot,
		key:        xmlac.DeriveKey(reg.Passphrase),
		passphrase: reg.Passphrase,
	}
	entry.cur.Store(newSurface(prot, blob, sha256.Sum256(blob)))
	entry.updateMu.Lock()
	defer entry.updateMu.Unlock()
	s.mu.Lock()
	old := s.docs[id]
	s.docs[id] = entry
	s.mu.Unlock()
	if old != nil {
		old.updateMu.Lock()
		old.retired = true
		old.updateMu.Unlock()
	}
	if commit == nil {
		return entry, nil
	}
	return entry, commit(entry)
}

// etagOf is the strong entity tag of a blob with the given SHA-256: the
// quoted digest.
func etagOf(sum [sha256.Size]byte) string {
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// Entry returns the document registered under id.
func (s *Store) Entry(id string) (*DocumentEntry, error) {
	s.mu.RLock()
	entry, ok := s.docs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: document %q", ErrNotFound, id)
	}
	return entry, nil
}

// Remove deletes the document registered under id. commit, when non-nil,
// runs under the entry's update lock once the entry is retired and before it
// leaves the store: the delete record lands after every record of the entry
// and before the registration of any document that replaces it. Remove
// returns ErrNotFound for an unknown id, ErrRetired when a concurrent PUT or
// DELETE retired the entry first, and otherwise commit's error.
func (s *Store) Remove(id string, commit func() error) error {
	entry, err := s.Entry(id)
	if err != nil {
		return err
	}
	entry.updateMu.Lock()
	defer entry.updateMu.Unlock()
	if entry.retired {
		return ErrRetired
	}
	entry.retired = true
	if commit != nil {
		err = commit()
	}
	s.mu.Lock()
	if s.docs[id] == entry {
		delete(s.docs, id)
	}
	s.mu.Unlock()
	return err
}

// Len returns the number of registered documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// List returns the summaries of every registered document, sorted by id.
func (s *Store) List() []DocumentInfo {
	s.mu.RLock()
	entries := make([]*DocumentEntry, 0, len(s.docs))
	for _, e := range s.docs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	out := make([]DocumentInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Info())
	}
	return out
}

// Info returns the externally visible summary of the document.
func (e *DocumentEntry) Info() DocumentInfo {
	man := e.current().manifest
	return DocumentInfo{
		ID:             e.ID,
		Scheme:         string(e.Scheme),
		Version:        man.Version,
		ProtectedBytes: int(man.CiphertextLen),
		Elements:       e.Stats.Elements,
		MaxDepth:       e.Stats.MaxDepth,
		CreatedAt:      e.CreatedAt,
	}
}

// current returns the published blob surface.
func (e *DocumentEntry) current() *surface { return e.cur.Load() }

// Blob returns the marshalled protected container and its strong ETag, a
// consistent pair for the entry's current version.
func (e *DocumentEntry) Blob() ([]byte, string) {
	sf := e.current()
	return sf.blob, sf.etag
}

// Version returns the document version of the published blob surface.
func (e *DocumentEntry) Version() uint64 { return e.current().manifest.Version }

// Update applies the edits as the document's next version: chunk-granular
// re-encryption through xmlac's Update and a fresh blob and entity tag. The
// returned delta names the dirty chunks. commit, when non-nil, runs once
// the version is published, still under the update lock, so the durable
// records of one document are logged in the order its versions applied;
// its error is returned with the applied version. A retired entry applies
// nothing (ErrRetired).
func (e *DocumentEntry) Update(edits []xmlac.Edit, commit func(*xmlac.UpdateDelta) error) (uint64, *xmlac.UpdateDelta, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if e.retired {
		return 0, nil, ErrRetired
	}
	version, delta, err := e.prot.Update(e.key, edits)
	if err != nil {
		return 0, nil, err
	}
	// The new version's blob, entity tag and manifest are published as one
	// surface: a reader sees either version whole.
	blob := e.prot.Marshal()
	e.cur.Store(newSurface(e.prot, blob, sha256.Sum256(blob)))
	if commit != nil {
		err = commit(delta)
	}
	return version, delta, err
}

// applyRecoveredPatch replays one WAL patch record: the new container is
// rebuilt from the entry's current blob (clean chunks are byte-identical at
// the same offsets — the position-bound chunk layout guarantees it), the
// recorded new prefix and the recorded dirty chunk bytes, then verified
// against the recorded content hash before it replaces the entry's surface.
// A patch that does not chain from the entry's version is a hard error —
// recovery must fail loudly rather than serve a state that never existed.
func (e *DocumentEntry) applyRecoveredPatch(delta *xmlac.UpdateDelta, prefix, dirty []byte, wantSum []byte) error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	cur := e.current()
	old, oldMan, version := cur.blob, cur.manifest, cur.manifest.Version
	if delta.FromVersion != version {
		return fmt.Errorf("server: recovered patch %d->%d does not chain from version %d of document %q",
			delta.FromVersion, delta.ToVersion, version, e.ID)
	}
	cs := int64(oldMan.ChunkSize)
	if cs <= 0 {
		return fmt.Errorf("server: document %q has no chunk layout to patch", e.ID)
	}
	blob := make([]byte, 0, int64(len(prefix))+delta.NewCiphertextLen)
	blob = append(blob, prefix...)
	dirtySet := make(map[int]bool, len(delta.DirtyChunks))
	for _, c := range delta.DirtyChunks {
		dirtySet[c] = true
	}
	dpos := int64(0)
	for start := int64(0); start < delta.NewCiphertextLen; start += cs {
		end := start + cs
		if end > delta.NewCiphertextLen {
			end = delta.NewCiphertextLen
		}
		n := end - start
		if dirtySet[int(start/cs)] {
			if dpos+n > int64(len(dirty)) {
				return fmt.Errorf("server: recovered patch for %q is short %d dirty bytes", e.ID, dpos+n-int64(len(dirty)))
			}
			blob = append(blob, dirty[dpos:dpos+n]...)
			dpos += n
			continue
		}
		off := oldMan.CiphertextOffset + start
		if off+n > int64(len(old)) {
			return fmt.Errorf("server: recovered patch for %q reuses chunk %d beyond the previous container", e.ID, int(start/cs))
		}
		blob = append(blob, old[off:off+n]...)
	}
	if dpos != int64(len(dirty)) {
		return fmt.Errorf("server: recovered patch for %q carries %d unused dirty bytes", e.ID, int64(len(dirty))-dpos)
	}
	sum := sha256.Sum256(blob)
	if !bytes.Equal(sum[:], wantSum) {
		return fmt.Errorf("server: recovered patch for %q does not hash to the recorded content (%x != %x)", e.ID, sum[:8], wantSum[:8])
	}
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		return fmt.Errorf("server: recovered patch for %q yields an invalid container: %w", e.ID, err)
	}
	if got := prot.Version(); got != delta.ToVersion {
		return fmt.Errorf("server: recovered patch for %q stamps version %d, record says %d", e.ID, got, delta.ToVersion)
	}
	e.prot = prot
	e.cur.Store(newSurface(prot, blob, sum))
	return nil
}
