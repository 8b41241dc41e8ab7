package xmlstream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Parser is a hand-rolled streaming parser for the XML subset the paper's
// documents use: elements, text content and attributes (attributes are
// "handled in the model similarly to elements", section 2, so the parser
// exposes them as child elements prefixed with "@" when AttributesAsElements
// is set, and drops them otherwise). Namespaces, processing instructions,
// comments, CDATA and DTDs are tolerated and skipped. The parser keeps only
// O(depth) state, matching the SOE memory constraint.
type Parser struct {
	r     *bufio.Reader
	stack []string // open element names
	// queue of pending events produced by a single read step (attributes,
	// self-closing elements produce more than one event).
	queue []Event
	// AttributesAsElements controls whether attributes become synthetic
	// child elements named "@attr" containing a text node.
	AttributesAsElements bool
	err                  error
	consumed             int64
}

// NewParser returns a Parser reading a textual XML document from r.
func NewParser(r io.Reader) *Parser {
	return &Parser{r: bufio.NewReaderSize(r, 32*1024), AttributesAsElements: true}
}

// ParseString parses a full document held in a string.
func ParseString(doc string) *Parser {
	return NewParser(strings.NewReader(doc))
}

// BytesConsumed returns the number of raw input bytes consumed so far.
func (p *Parser) BytesConsumed() int64 { return p.consumed }

// Depth returns the current element nesting depth.
func (p *Parser) Depth() int { return len(p.stack) }

// Next implements EventReader.
func (p *Parser) Next() (Event, error) {
	if len(p.queue) > 0 {
		ev := p.queue[0]
		p.queue = p.queue[1:]
		return ev, nil
	}
	if p.err != nil {
		return Event{}, p.err
	}
	for {
		if err := p.fill(); err != nil {
			p.err = err
			return Event{}, err
		}
		if len(p.queue) > 0 {
			ev := p.queue[0]
			p.queue = p.queue[1:]
			return ev, nil
		}
	}
}

// fill reads one markup construct or one text run and appends the resulting
// events (possibly none, for comments and whitespace-only text) to the queue.
func (p *Parser) fill() error {
	c, err := p.readByte()
	if err != nil {
		if err == io.EOF {
			if len(p.stack) != 0 {
				return fmt.Errorf("%w: unexpected end of input inside <%s>", ErrMalformed, p.stack[len(p.stack)-1])
			}
			return ErrEndOfDocument
		}
		return err
	}
	if c != '<' {
		// Text run up to the next '<'.
		var sb strings.Builder
		sb.WriteByte(c)
		for {
			b, err := p.peekByte()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if b == '<' {
				break
			}
			p.mustReadByte()
			sb.WriteByte(b)
		}
		text := strings.TrimSpace(sb.String())
		if text != "" && len(p.stack) > 0 {
			p.queue = append(p.queue, Event{Kind: Text, Value: unescape(text), Depth: len(p.stack)})
		}
		return nil
	}
	// Markup.
	b, err := p.peekByte()
	if err != nil {
		return fmt.Errorf("%w: dangling '<'", ErrMalformed)
	}
	switch b {
	case '?':
		return p.skipUntil("?>")
	case '!':
		p.mustReadByte()
		b2, _ := p.peekByte()
		if b2 == '-' {
			return p.skipUntil("-->")
		}
		if b2 == '[' { // CDATA
			if err := p.expect("[CDATA["); err != nil {
				return err
			}
			content, err := p.readUntil("]]>")
			if err != nil {
				return err
			}
			if len(p.stack) > 0 && strings.TrimSpace(content) != "" {
				p.queue = append(p.queue, Event{Kind: Text, Value: content, Depth: len(p.stack)})
			}
			return nil
		}
		return p.skipUntil(">") // DOCTYPE etc.
	case '/':
		p.mustReadByte()
		name, err := p.readUntil(">")
		if err != nil {
			return err
		}
		name = strings.TrimSpace(name)
		if len(p.stack) == 0 {
			return fmt.Errorf("%w: closing tag </%s> with no open element", ErrMalformed, name)
		}
		top := p.stack[len(p.stack)-1]
		if top != name {
			return fmt.Errorf("%w: closing tag </%s> does not match <%s>", ErrMalformed, name, top)
		}
		depth := len(p.stack)
		p.stack = p.stack[:len(p.stack)-1]
		p.queue = append(p.queue, Event{Kind: Close, Name: name, Depth: depth})
		return nil
	default:
		raw, err := p.readUntil(">")
		if err != nil {
			return err
		}
		selfClosing := strings.HasSuffix(raw, "/")
		if selfClosing {
			raw = raw[:len(raw)-1]
		}
		name, attrs := splitTag(raw)
		if name == "" {
			return fmt.Errorf("%w: empty element name", ErrMalformed)
		}
		if strings.HasSuffix(name, "/") {
			// "<0//>" would parse here as an element named "0/" whose
			// serialized form reads back as self-closing: not representable.
			return fmt.Errorf("%w: element name %q ends with '/'", ErrMalformed, name)
		}
		if c := name[0]; c == '!' || c == '?' || c == '/' {
			// "< !x>" would produce an element whose serialized form starts
			// with markup-dispatch characters ("<!x>": DOCTYPE, "<?": PI,
			// "</": closing tag) and reads back as something else entirely.
			return fmt.Errorf("%w: element name %q starts with %q", ErrMalformed, name, c)
		}
		p.stack = append(p.stack, name)
		depth := len(p.stack)
		p.queue = append(p.queue, Event{Kind: Open, Name: name, Depth: depth})
		if p.AttributesAsElements {
			for _, a := range attrs {
				p.queue = append(p.queue, Event{Kind: Open, Name: "@" + a.name, Depth: depth + 1})
				// Attribute values get the same whitespace normalization as
				// document text runs, so a synthetic attribute element
				// serializes and re-parses to itself.
				if v := strings.TrimSpace(a.value); v != "" {
					p.queue = append(p.queue, Event{Kind: Text, Value: v, Depth: depth + 1})
				}
				p.queue = append(p.queue, Event{Kind: Close, Name: "@" + a.name, Depth: depth + 1})
			}
		}
		if selfClosing {
			p.stack = p.stack[:len(p.stack)-1]
			p.queue = append(p.queue, Event{Kind: Close, Name: name, Depth: depth})
		}
		return nil
	}
}

type attr struct{ name, value string }

// splitTag splits the inside of an opening tag into the element name and its
// attributes. Attribute values may be single or double quoted.
func splitTag(raw string) (string, []attr) {
	raw = strings.TrimSpace(raw)
	i := strings.IndexAny(raw, " \t\r\n")
	if i < 0 {
		return raw, nil
	}
	// TrimSpace covers more code points than the ASCII split set above (\v,
	// \f, NBSP, ...); trimming the extracted token keeps the open-tag name
	// byte-identical to what the closing-tag parse (which TrimSpaces the
	// whole name) will produce.
	name := strings.TrimSpace(raw[:i])
	rest := raw[i:]
	var attrs []attr
	for {
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" {
			break
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			break
		}
		aname := strings.TrimSpace(rest[:eq])
		if j := strings.LastIndexAny(aname, " \t\r\n"); j >= 0 {
			// Bare tokens before a named attribute ("<a 0 0='v'>") are
			// malformed XML; the tolerance policy drops them — only the
			// name=value pair adjacent to the '=' survives, so synthetic
			// attribute elements never carry whitespace in their names.
			aname = aname[j+1:]
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t\r\n")
		if rest == "" {
			break
		}
		quote := rest[0]
		if quote != '"' && quote != '\'' {
			break
		}
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			break
		}
		if aname != "" && !strings.HasSuffix(aname, "/") {
			attrs = append(attrs, attr{name: aname, value: unescape(rest[1 : 1+end])})
		}
		rest = rest[end+2:]
	}
	return name, attrs
}

func (p *Parser) readByte() (byte, error) {
	b, err := p.r.ReadByte()
	if err == nil {
		p.consumed++
	}
	return b, err
}

func (p *Parser) mustReadByte() byte {
	b, err := p.readByte()
	if err != nil {
		panic("xmlstream: mustReadByte after successful peek: " + err.Error())
	}
	return b
}

func (p *Parser) peekByte() (byte, error) {
	bs, err := p.r.Peek(1)
	if err != nil {
		return 0, err
	}
	return bs[0], nil
}

// readUntil consumes input up to and including the delimiter and returns the
// content before it.
func (p *Parser) readUntil(delim string) (string, error) {
	var sb strings.Builder
	for {
		b, err := p.readByte()
		if err != nil {
			return "", fmt.Errorf("%w: expected %q before end of input", ErrMalformed, delim)
		}
		sb.WriteByte(b)
		if strings.HasSuffix(sb.String(), delim) {
			s := sb.String()
			return s[:len(s)-len(delim)], nil
		}
	}
}

func (p *Parser) skipUntil(delim string) error {
	_, err := p.readUntil(delim)
	return err
}

func (p *Parser) expect(s string) error {
	for i := 0; i < len(s); i++ {
		b, err := p.readByte()
		if err != nil || b != s[i] {
			return fmt.Errorf("%w: expected %q", ErrMalformed, s)
		}
	}
	return nil
}

func unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	replacer := strings.NewReplacer(
		"&lt;", "<",
		"&gt;", ">",
		"&quot;", `"`,
		"&apos;", "'",
		"&amp;", "&",
	)
	return replacer.Replace(s)
}

// Escape escapes the XML special characters of a text value, exactly as the
// Serializer writes it.
func Escape(s string) string { return string(appendEscaped(nil, s)) }

// ParseTree parses a full document into a Node tree. It is used by the
// dataset round-trip tests and by the protect pipeline, not by the SOE.
func ParseTree(r io.Reader) (*Node, error) {
	p := NewParser(r)
	var stack []*Node
	var root *Node
	for {
		ev, err := p.Next()
		if errors.Is(err, ErrEndOfDocument) {
			break
		}
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case Open:
			n := NewElement(ev.Name)
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			} else if root == nil {
				root = n
			} else {
				return nil, fmt.Errorf("%w: multiple root elements", ErrMalformed)
			}
			stack = append(stack, n)
		case Text:
			if len(stack) == 0 {
				continue
			}
			parent := stack[len(stack)-1]
			parent.Children = append(parent.Children, NewText(ev.Value))
		case Close:
			if len(stack) == 0 {
				return nil, fmt.Errorf("%w: unbalanced close event", ErrMalformed)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("%w: empty document", ErrMalformed)
	}
	return root, nil
}

// ParseTreeString is ParseTree over a string.
func ParseTreeString(doc string) (*Node, error) {
	return ParseTree(strings.NewReader(doc))
}
