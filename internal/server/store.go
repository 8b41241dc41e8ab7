package server

import (
	"bytes"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"xmlac"
)

// ErrNotFound is returned for unknown documents or subjects.
var ErrNotFound = errors.New("server: not found")

// ErrRetired is returned by a mutation whose document entry a concurrent
// PUT replaced or DELETE removed before the mutation could apply: it lost
// the race, applied nothing and logged nothing.
var ErrRetired = errors.New("server: document was replaced or deleted concurrently")

// Store is the concurrency-safe registry of protected documents and their
// per-subject policies. Each document is protected (compressed, encrypted,
// integrity-protected) once at registration time; every later view request
// evaluates against the same immutable protected form, so reads never lock
// out each other.
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
// registration and policy timestamps are deterministic under the fake clock.
func newStoreWithClock(c clock) *Store {
	if c == nil {
		c = realClock{}
	}
	return &Store{docs: make(map[string]*DocumentEntry), clock: c}
}

// DocumentEntry is one registered document with its key and the policies of
// its subjects. The key is immutable after registration; the protected form
// is versioned — PATCH updates install new versions in place (concurrent
// views run on the version they snapshotted). The policy table has its own
// lock so policy updates do not block view requests on other documents.
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
	// record included: PATCHes (edit application, blob re-marshal, delta
	// retention), policy installs, the registration that published the entry
	// and the PUT or DELETE that retires it. The version chain stays linear
	// and the log holds one document id's records in the order they applied.
	updateMu sync.Mutex
	// retired marks an entry a PUT replaced or a DELETE removed; a mutation
	// that finds it set under updateMu lost the race (ErrRetired). Guarded by
	// updateMu.
	retired bool

	// mu guards the whole untrusted-blob surface as one consistent unit —
	// marshalled blob, its entity tag, the manifest, the version and the
	// retained deltas all describe the same document version at any read —
	// plus the policy table. blob is what an untrusted blob server stores
	// and range-serves to remote SOE clients; etag is its strong entity tag
	// (quoted SHA-256 of the content), sent on GET /docs/{id}/blob and
	// checked against If-None-Match / If-Range — every document version has
	// its own etag. (Views snapshot the protected form directly and may run
	// one version ahead of the blob surface for the instant an update is
	// being installed; each surface is internally consistent.)
	mu       sync.RWMutex
	blob     []byte
	etag     string
	manifest xmlac.DocumentManifest
	version  uint64
	deltas   []*xmlac.UpdateDelta
	policies map[string]PolicyRecord
}

// maxRetainedDeltas bounds the per-document update history served through
// GET /docs/{id}/delta. A client further behind than this falls back to a
// full re-sync, exactly as if the document had been re-registered.
const maxRetainedDeltas = 64

// PolicyRecord is one subject's policy with its content fingerprint and its
// compiled form, built once when the policy is installed or replayed.
type PolicyRecord struct {
	Policy    xmlac.Policy
	Compiled  *xmlac.CompiledPolicy
	Hash      string
	UpdatedAt time.Time
}

// DocumentInfo is the externally visible summary of a registered document.
type DocumentInfo struct {
	ID             string    `json:"id"`
	Scheme         string    `json:"scheme"`
	Version        uint64    `json:"version"`
	ProtectedBytes int       `json:"protected_bytes"`
	Elements       int       `json:"elements"`
	MaxDepth       int       `json:"max_depth"`
	Subjects       int       `json:"subjects"`
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
	return s.install(id, reg, prot, prot.Marshal(), nil, commit)
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
func (s *Store) install(id string, reg registerMeta, prot *xmlac.Protected, blob []byte, deltas []*xmlac.UpdateDelta, commit func(*DocumentEntry) error) (*DocumentEntry, error) {
	entry := &DocumentEntry{
		ID:         id,
		Scheme:     xmlac.Scheme(reg.Scheme),
		Stats:      reg.Stats,
		CreatedAt:  reg.CreatedAt,
		prot:       prot,
		key:        xmlac.DeriveKey(reg.Passphrase),
		passphrase: reg.Passphrase,
		blob:       blob,
		etag:       etagOf(sha256.Sum256(blob)),
		manifest:   prot.Manifest(),
		version:    prot.Version(),
		deltas:     deltas,
		policies:   make(map[string]PolicyRecord),
	}
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
	e.mu.RLock()
	subjects := len(e.policies)
	version := e.version
	size := int(e.manifest.CiphertextLen)
	e.mu.RUnlock()
	return DocumentInfo{
		ID:             e.ID,
		Scheme:         string(e.Scheme),
		Version:        version,
		ProtectedBytes: size,
		Elements:       e.Stats.Elements,
		MaxDepth:       e.Stats.MaxDepth,
		Subjects:       subjects,
		CreatedAt:      e.CreatedAt,
	}
}

// SetPolicy compiles and installs the policy of one subject over the
// document, stamped updatedAt, and returns its fingerprint. Live installs and
// recovery both come through here, so every policy is compiled exactly once
// per install or replayed record; recovery reinstalls a policy with its
// original stamp. commit, when non-nil, runs under the entry's update lock
// with the installed record, so the policy record lands before the record of
// the PUT or DELETE that retires the entry. A retired entry installs nothing
// (ErrRetired).
func (e *DocumentEntry) SetPolicy(subject string, policy xmlac.Policy, updatedAt time.Time, commit func(PolicyRecord) error) (string, error) {
	policy.Subject = subject
	cp, err := policy.Compile()
	if err != nil {
		return "", err
	}
	rec := PolicyRecord{Policy: policy, Compiled: cp, Hash: cp.Hash(), UpdatedAt: updatedAt}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if e.retired {
		return "", ErrRetired
	}
	e.mu.Lock()
	e.policies[subject] = rec
	e.mu.Unlock()
	if commit != nil {
		err = commit(rec)
	}
	return rec.Hash, err
}

// PolicyFor returns the policy record of a subject.
func (e *DocumentEntry) PolicyFor(subject string) (PolicyRecord, error) {
	e.mu.RLock()
	rec, ok := e.policies[subject]
	e.mu.RUnlock()
	if !ok {
		return PolicyRecord{}, fmt.Errorf("%w: no policy for subject %q on document %q", ErrNotFound, subject, e.ID)
	}
	return rec, nil
}

// Subjects returns the subjects holding a policy over the document, sorted.
func (e *DocumentEntry) Subjects() []string {
	e.mu.RLock()
	out := make([]string, 0, len(e.policies))
	for s := range e.policies {
		out = append(out, s)
	}
	e.mu.RUnlock()
	sort.Strings(out)
	return out
}

// StreamView evaluates one compiled policy over the protected document in a
// one-view scan, streaming the authorized view to w. Every GET /view runs
// through it.
func (e *DocumentEntry) StreamView(cp *xmlac.CompiledPolicy, opts xmlac.ViewOptions, w io.Writer) (*xmlac.Metrics, error) {
	return e.prot.StreamAuthorizedViewCompiled(e.key, cp, opts, w)
}

// Blob returns the marshalled protected container and its strong ETag, a
// consistent pair for the entry's current version.
func (e *DocumentEntry) Blob() ([]byte, string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.blob, e.etag
}

// Version returns the document version of the published blob surface.
func (e *DocumentEntry) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// ErrDeltaUnavailable is returned by DeltaSince when the requested version
// fell out of the retained update history (or never existed): the client
// must fall back to a full re-sync.
var ErrDeltaUnavailable = errors.New("server: update delta unavailable for that version")

// Update applies the edits as the document's next version: chunk-granular
// re-encryption through xmlac's Update, a fresh blob and entity tag, and the
// step delta appended to the retained history. Views running concurrently
// finish on the version they started with. commit, when non-nil, runs once
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
	// Marshal outside e.mu (it copies megabytes), then install blob, etag,
	// manifest, version and the delta step in one critical section: a reader
	// of the blob surface never observes the new version's manifest or delta
	// history paired with the old version's blob, or vice versa.
	blob := e.prot.Marshal()
	manifest := e.prot.Manifest()
	etag := etagOf(sha256.Sum256(blob))
	e.mu.Lock()
	e.blob = blob
	e.etag = etag
	e.manifest = manifest
	e.version = version
	e.deltas = appendRetained(e.deltas, delta)
	e.mu.Unlock()
	if commit != nil {
		err = commit(delta)
	}
	return version, delta, err
}

// appendRetained appends one update step and trims the history to the
// retention window. The retained window is copied into a fresh slice —
// reslicing in place would keep every evicted *UpdateDelta reachable through
// the shared backing array for as long as the document lives.
func appendRetained(deltas []*xmlac.UpdateDelta, delta *xmlac.UpdateDelta) []*xmlac.UpdateDelta {
	deltas = append(deltas, delta)
	if len(deltas) > maxRetainedDeltas {
		trimmed := make([]*xmlac.UpdateDelta, maxRetainedDeltas)
		copy(trimmed, deltas[len(deltas)-maxRetainedDeltas:])
		deltas = trimmed
	}
	return deltas
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
	e.mu.RLock()
	old := e.blob
	oldMan := e.manifest
	version := e.version
	e.mu.RUnlock()
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
	manifest := prot.Manifest()
	e.mu.Lock()
	e.prot = prot
	e.blob = blob
	e.etag = etagOf(sum)
	e.manifest = manifest
	e.version = delta.ToVersion
	e.deltas = appendRetained(e.deltas, delta)
	e.mu.Unlock()
	return nil
}

// DeltaSince merges the retained update steps from the given version to the
// current one: what a remote chunk cache at version from needs to evict only
// the chunks that changed. It returns ErrDeltaUnavailable when from
// predates the retained history and (nil, current, nil) when from is already
// current.
func (e *DocumentEntry) DeltaSince(from uint64) (*xmlac.UpdateDelta, uint64, error) {
	// History and current version are read inside one critical section so
	// the chain check is against the version the history actually leads to.
	e.mu.RLock()
	current := e.version
	steps := make([]*xmlac.UpdateDelta, 0, len(e.deltas))
	for i, d := range e.deltas {
		if d.FromVersion == from {
			steps = append(steps, e.deltas[i:]...)
			break
		}
	}
	e.mu.RUnlock()
	if from == current {
		return nil, current, nil
	}
	if from > current || len(steps) == 0 || steps[len(steps)-1].ToVersion != current {
		return nil, current, ErrDeltaUnavailable
	}
	merged, err := xmlac.MergeUpdateDeltas(steps)
	if err != nil {
		return nil, current, err
	}
	return merged, current, nil
}

// Manifest returns the public layout of the published blob: always the
// manifest of the same version Blob() serves.
func (e *DocumentEntry) Manifest() xmlac.DocumentManifest {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.manifest
}

// FragmentHashes returns the ciphertext fragment hashes of one chunk (the
// untrusted-terminal side of the ECB-MHT Merkle protocol), computed from the
// published blob under the same lock that guards it — so the hashes always
// describe the version whose ETag the handler sends, even while an update is
// being installed. Hashing public ciphertext is exactly the computation the
// paper assigns to the untrusted terminal; no key material is involved.
func (e *DocumentEntry) FragmentHashes(chunk int) ([][]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	man := e.manifest
	if man.FragmentSize <= 0 {
		return nil, fmt.Errorf("server: document %q has no fragment layout", e.ID)
	}
	if chunk < 0 || chunk >= man.NumChunks {
		return nil, fmt.Errorf("server: chunk %d out of range (%d chunks)", chunk, man.NumChunks)
	}
	start := int64(chunk) * int64(man.ChunkSize)
	end := start + int64(man.ChunkSize)
	if end > man.CiphertextLen {
		end = man.CiphertextLen
	}
	data := e.blob[man.CiphertextOffset+start : man.CiphertextOffset+end]
	out := make([][]byte, 0, (len(data)+man.FragmentSize-1)/man.FragmentSize)
	for off := 0; off < len(data); off += man.FragmentSize {
		frag := data[off:]
		if len(frag) > man.FragmentSize {
			frag = frag[:man.FragmentSize]
		}
		h := sha1.Sum(frag)
		out = append(out, append([]byte(nil), h[:]...))
	}
	return out, nil
}
