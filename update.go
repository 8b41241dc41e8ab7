package xmlac

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"xmlac/internal/secure"
	"xmlac/internal/skipindex"
	"xmlac/internal/xmlstream"
)

// Versioned in-place updates. The paper's encryption layout is chunked
// precisely so that a document edit re-encrypts only the chunks it touches
// and patches only the affected Merkle roots; Protected.Update exposes that:
// it applies subtree edits to the document, re-encrypts the dirty chunks,
// reuses every untouched ciphertext byte and encrypted digest of the
// previous version, and bumps the monotonic version stamped into the
// container. The result is byte-identical (modulo the version stamp) to
// protecting the edited document from scratch — so views over an updated
// document equal views over a fresh Protect, with equal SOE metrics, which
// the differential update harness verifies edit by edit.
//
// Two cost regimes, picked automatically per batch:
//
//   - in-place fast path: when every edit replaces an element's direct text
//     with a value of the same byte length, nothing in the Skip index
//     changes — no subtree size, field width, tag array or dictionary entry
//     depends on text content, only on its length — so the new encoding is
//     the old one with the text bytes spliced in. No re-encode, no
//     re-encryption beyond the touched chunks: the whole update costs a few
//     chunk encryptions.
//   - structural path: inserts, deletes, replacements and length-changing
//     text edits re-encode the Skip index (subtree sizes shift), then the
//     chunk-granular diff still reuses every chunk whose bytes and position
//     survived — typically everything before the edit point.

// EditOp names one edit operation.
type EditOp string

const (
	// EditReplace replaces the selected element (subtree included) with the
	// element parsed from Edit.XML. The document root cannot be replaced.
	EditReplace EditOp = "replace"
	// EditDelete removes the selected element and its subtree. The document
	// root cannot be deleted.
	EditDelete EditOp = "delete"
	// EditInsert appends the element parsed from Edit.XML as the last child
	// of the selected element.
	EditInsert EditOp = "insert"
	// EditSetText replaces the concatenated direct text of the selected
	// element with Edit.Text (placed before the element children, matching
	// the Skip-index encoding's text normalization). A same-length
	// replacement takes the in-place fast path.
	EditSetText EditOp = "set-text"
)

// Edit is one subtree edit of a protected document. Path selects the target
// element with a simple absolute location path over element tags:
//
//	/Hospital/Folder[3]/Admin/Phone
//
// Each step is Tag or Tag[n], n being the 1-based occurrence of Tag among
// the element children of the previous step (Tag alone means Tag[1]); the
// first step names the document root. The restricted syntax keeps edit
// targets deterministic — an edit names one node, never a node set.
type Edit struct {
	Op   EditOp `json:"op"`
	Path string `json:"path"`
	XML  string `json:"xml,omitempty"`
	Text string `json:"text,omitempty"`
}

// ErrInvalidEdit wraps edit validation and application errors.
var ErrInvalidEdit = errors.New("xmlac: invalid edit")

// UpdateDelta describes what an Update changed in terms the untrusted side
// uses: which integrity chunks of the new layout carry fresh ciphertext and
// the new sizes. The store answers a PATCH with it and logs it in the
// update's record; nothing in a delta is secret.
type UpdateDelta struct {
	FromVersion      uint64 `json:"from_version"`
	ToVersion        uint64 `json:"to_version"`
	NumChunks        int    `json:"num_chunks"`
	DirtyChunks      []int  `json:"dirty_chunks"`
	BytesReencrypted int64  `json:"bytes_reencrypted"`
	BytesReused      int64  `json:"bytes_reused"`
	NewPlainLen      int    `json:"new_plain_len"`
	NewCiphertextLen int64  `json:"new_ciphertext_len"`
}

func deltaFromSecure(d *secure.Delta) *UpdateDelta {
	return &UpdateDelta{
		FromVersion:      d.FromVersion,
		ToVersion:        d.ToVersion,
		NumChunks:        d.NumChunks,
		DirtyChunks:      append([]int(nil), d.DirtyChunks...),
		BytesReencrypted: d.BytesReencrypted,
		BytesReused:      d.BytesReused,
		NewPlainLen:      d.NewPlainLen,
		NewCiphertextLen: d.NewCiphertextLen,
	}
}

func (d *UpdateDelta) secure() *secure.Delta {
	return &secure.Delta{
		FromVersion:      d.FromVersion,
		ToVersion:        d.ToVersion,
		NumChunks:        d.NumChunks,
		DirtyChunks:      append([]int(nil), d.DirtyChunks...),
		BytesReencrypted: d.BytesReencrypted,
		BytesReused:      d.BytesReused,
		NewPlainLen:      d.NewPlainLen,
		NewCiphertextLen: d.NewCiphertextLen,
	}
}

// Marshal serializes the delta in the compact binary form the store's
// update records carry.
func (d *UpdateDelta) Marshal() []byte { return d.secure().Marshal() }

// UnmarshalUpdateDelta parses a marshalled delta.
func UnmarshalUpdateDelta(data []byte) (*UpdateDelta, error) {
	sd, err := secure.UnmarshalDelta(data)
	if err != nil {
		return nil, err
	}
	return deltaFromSecure(sd), nil
}

// Update applies the edits to the protected document in order, re-encrypts
// only the integrity chunks whose bytes changed, rebuilds only the affected
// Merkle roots and Skip-index entries, and installs the result as the next
// document version. It returns the new version and the delta naming the
// dirty chunks. Concurrent evaluations are never torn: they run on the
// version they snapshotted at their start, and the swap to the new version
// is atomic. Either every edit applies or none does.
//
// The update is semantically a re-protect: views of the updated document are
// byte-identical, with identical SOE metrics, to views of a from-scratch
// Protect of the edited document (the encrypted bytes themselves are
// identical too, except the version stamp).
func (p *Protected) Update(key Key, edits []Edit) (uint64, *UpdateDelta, error) {
	p.updateMu.Lock()
	defer p.updateMu.Unlock()
	if len(edits) == 0 {
		return 0, nil, fmt.Errorf("%w: no edits", ErrInvalidEdit)
	}
	if err := p.ensureEditable(key); err != nil {
		return 0, nil, err
	}
	// updateMu is held: no other goroutine mutates prot/plain/root/spans, and
	// readers only touch prot through snapshot().
	old, oldPlain := p.prot, p.plain

	newPlain, ok, err := p.spliceInPlace(edits)
	newSpans := p.spans
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		if err := applyEdits(p.root, edits); err != nil {
			return 0, nil, err
		}
		encoded, err := p.enc.EncodeIndexed(p.root, p.spans)
		if err != nil {
			p.dropEditState()
			return 0, nil, err
		}
		newPlain, newSpans = encoded.Data, encoded.TextSpans
	}
	newProt, delta, err := secure.Update(old, oldPlain, newPlain, key)
	if err != nil {
		p.dropEditState()
		return 0, nil, err
	}
	p.mu.Lock()
	p.prot, p.plain, p.spans = newProt, newPlain, newSpans
	p.mu.Unlock()
	return newProt.Version, deltaFromSecure(delta), nil
}

// dropEditState forgets the edit state after a failed Update: the tree may
// already carry the edits and the span index may be half rebuilt, and
// re-deriving both from the unchanged ciphertext on the next call is simpler
// and safer than undoing across the splice and structural paths.
func (p *Protected) dropEditState() {
	p.mu.Lock()
	p.plain, p.root, p.spans = nil, nil, nil
	p.mu.Unlock()
}

// ensureEditable materializes the publisher-side edit state (plaintext
// encoding, document tree, text-span index) on the first Update: one decrypt
// and decode, cached afterwards. Deriving it from the ciphertext — rather
// than retaining it at Protect time — keeps read-only documents free of the
// 2-3x memory the edit state costs, and works identically for documents
// loaded with UnmarshalProtected.
func (p *Protected) ensureEditable(key Key) error {
	if p.root != nil && p.plain != nil && p.spans != nil {
		return nil
	}
	plain, err := secure.Decrypt(p.prot, key)
	if err != nil {
		return err
	}
	root, err := skipindex.Decode(plain)
	if err != nil {
		return fmt.Errorf("xmlac: decoding document for update (wrong key?): %w", err)
	}
	encoded, err := p.enc.EncodeIndexed(root, nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(encoded.Data, plain) {
		return errors.New("xmlac: container does not round-trip through this encoder; cannot update in place")
	}
	p.mu.Lock()
	p.plain, p.root, p.spans = encoded.Data, root, encoded.TextSpans
	p.mu.Unlock()
	return nil
}

// spliceInPlace attempts the fast path: every edit is a same-length set-text
// whose target has a known text span. It validates the whole batch before
// touching anything, then splices a copy of the cached encoding and updates
// the tree to match. ok reports whether the fast path applied.
func (p *Protected) spliceInPlace(edits []Edit) (newPlain []byte, ok bool, err error) {
	type splice struct {
		node *xmlstream.Node
		span skipindex.TextSpan
		text string
	}
	splices := make([]splice, 0, len(edits))
	for i := range edits {
		e := &edits[i]
		if e.Op != EditSetText {
			return nil, false, nil
		}
		_, _, node, err := resolveEditPath(p.root, e.Path)
		if err != nil {
			return nil, false, fmt.Errorf("%w: edit %d: %w", ErrInvalidEdit, i, err)
		}
		span, known := p.spans[node]
		if !known || span.Len != len(e.Text) {
			return nil, false, nil
		}
		splices = append(splices, splice{node: node, span: span, text: e.Text})
	}
	newPlain = append([]byte(nil), p.plain...)
	for _, s := range splices {
		copy(newPlain[s.span.Off:s.span.Off+s.span.Len], s.text)
		setDirectText(s.node, s.text)
	}
	return newPlain, true, nil
}

// setDirectText replaces the direct text of an element with a single text
// node placed before the element children — the normalization the Skip-index
// encoding applies anyway (it stores the concatenated direct text ahead of
// the children).
func setDirectText(n *xmlstream.Node, text string) {
	children := make([]*xmlstream.Node, 0, len(n.Children)+1)
	if text != "" {
		children = append(children, xmlstream.NewText(text))
	}
	for _, c := range n.Children {
		if c.Kind == xmlstream.ElementNode {
			children = append(children, c)
		}
	}
	n.Children = children
}

// applyEdits applies the batch to the tree in order. Each edit is validated
// before it mutates anything, and a failing edit restores the tree from the
// undo log, so the batch applies whole or not at all.
func applyEdits(root *xmlstream.Node, edits []Edit) error {
	type saved struct {
		node     *xmlstream.Node
		children []*xmlstream.Node
	}
	var log []saved
	save := func(n *xmlstream.Node) {
		log = append(log, saved{node: n, children: append([]*xmlstream.Node(nil), n.Children...)})
	}
	undo := func() {
		for i := len(log) - 1; i >= 0; i-- {
			log[i].node.Children = log[i].children
		}
	}
	for i := range edits {
		e := &edits[i]
		parent, idx, node, rerr := resolveEditPath(root, e.Path)
		if rerr != nil {
			undo()
			return fmt.Errorf("%w: edit %d: %w", ErrInvalidEdit, i, rerr)
		}
		switch e.Op {
		case EditReplace, EditInsert:
			frag, perr := parseFragment(e.XML)
			if perr != nil {
				undo()
				return fmt.Errorf("%w: edit %d: %w", ErrInvalidEdit, i, perr)
			}
			if e.Op == EditReplace {
				if parent == nil {
					undo()
					return fmt.Errorf("%w: edit %d: cannot replace the document root", ErrInvalidEdit, i)
				}
				save(parent)
				parent.Children[idx] = frag
			} else {
				save(node)
				node.Children = append(node.Children, frag)
			}
		case EditDelete:
			if parent == nil {
				undo()
				return fmt.Errorf("%w: edit %d: cannot delete the document root", ErrInvalidEdit, i)
			}
			save(parent)
			parent.Children = append(parent.Children[:idx:idx], parent.Children[idx+1:]...)
		case EditSetText:
			save(node)
			setDirectText(node, e.Text)
		default:
			undo()
			return fmt.Errorf("%w: edit %d: unknown op %q", ErrInvalidEdit, i, e.Op)
		}
	}
	return nil
}

// ApplyEdits applies the edits to a plain document with exactly the
// semantics Protected.Update gives them — the reference implementation the
// differential update harness compares against: Update-then-view must equal
// Protect(doc.ApplyEdits(...))-then-view. Either every edit applies or none
// does.
func (d *Document) ApplyEdits(edits ...Edit) error {
	if d.IsEmpty() {
		return fmt.Errorf("%w: empty document", ErrInvalidEdit)
	}
	return applyEdits(d.root, edits)
}

// parseFragment parses an XML fragment that must be a single element.
func parseFragment(xml string) (*xmlstream.Node, error) {
	if strings.TrimSpace(xml) == "" {
		return nil, errors.New("empty XML fragment")
	}
	doc, err := ParseDocumentString(xml)
	if err != nil {
		return nil, fmt.Errorf("parsing XML fragment: %w", err)
	}
	if doc.IsEmpty() {
		return nil, errors.New("XML fragment holds no element")
	}
	return doc.root, nil
}

// resolveEditPath walks an Edit.Path. For the document root it returns
// (nil, -1, root); otherwise parent is the node holding the target and idx
// the target's position in parent.Children.
func resolveEditPath(root *xmlstream.Node, path string) (parent *xmlstream.Node, idx int, node *xmlstream.Node, err error) {
	if root == nil {
		return nil, 0, nil, errors.New("no document tree")
	}
	trimmed := strings.TrimPrefix(path, "/")
	if trimmed == "" || strings.HasPrefix(trimmed, "/") {
		return nil, 0, nil, fmt.Errorf("malformed path %q", path)
	}
	steps := strings.Split(trimmed, "/")
	name, occurrence, err := parseStep(steps[0])
	if err != nil {
		return nil, 0, nil, fmt.Errorf("path %q: %w", path, err)
	}
	if name != root.Name || occurrence != 1 {
		return nil, 0, nil, fmt.Errorf("path %q does not start at the document root <%s>", path, root.Name)
	}
	parent, idx, node = nil, -1, root
	for _, step := range steps[1:] {
		name, occurrence, err := parseStep(step)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("path %q: %w", path, err)
		}
		found := -1
		seen := 0
		for i, c := range node.Children {
			if c.Kind == xmlstream.ElementNode && c.Name == name {
				seen++
				if seen == occurrence {
					found = i
					break
				}
			}
		}
		if found < 0 {
			return nil, 0, nil, fmt.Errorf("path %q: no element <%s>[%d] under <%s>", path, name, occurrence, node.Name)
		}
		parent, idx, node = node, found, node.Children[found]
	}
	return parent, idx, node, nil
}

// parseStep splits a path step "Tag" or "Tag[n]".
func parseStep(step string) (name string, occurrence int, err error) {
	occurrence = 1
	name = step
	if i := strings.IndexByte(step, '['); i >= 0 {
		if !strings.HasSuffix(step, "]") {
			return "", 0, fmt.Errorf("malformed step %q", step)
		}
		name = step[:i]
		occurrence, err = strconv.Atoi(step[i+1 : len(step)-1])
		if err != nil || occurrence < 1 {
			return "", 0, fmt.Errorf("malformed index in step %q", step)
		}
	}
	if name == "" {
		return "", 0, fmt.Errorf("empty tag in step %q", step)
	}
	return name, occurrence, nil
}
