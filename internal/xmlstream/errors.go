package xmlstream

import "errors"

// ErrEndOfDocument is returned by EventReader.Next when the document is
// exhausted. It plays the role io.EOF plays for byte streams; a distinct
// error makes accidental propagation of a real io.EOF from the underlying
// transport detectable.
var ErrEndOfDocument = errors.New("xmlstream: end of document")

// ErrMalformed is wrapped by parser errors caused by malformed input.
var ErrMalformed = errors.New("xmlstream: malformed document")
