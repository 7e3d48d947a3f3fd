// Package wiretags exercises the wiretags analyzer: a wire struct (any
// exported struct with at least one json tag) must tag every exported
// field explicitly, uniquely, and with a name documented in the
// configured protocol doc (protocol.md beside this file).
package wiretags

// Embedded's fields promote inline; the embedding itself needs no tag.
type Embedded struct {
	Base string `json:"base"`
}

type Msg struct {
	Embedded
	ID      string `json:"id"`
	Name    string `json:"name"`
	Items   []int  `json:"items"` // documented in its array form, `items[]`
	NoTag   string // want `exported field NoTag has no explicit json tag`
	Empty   string `json:",omitempty"` // want `json tag with an empty name`
	Dup     string `json:"id"`         // want `duplicate json tag "id"`
	Skipped string `json:"-"`
	Secret  string `json:"secret"` // want `json field "secret" is not documented`
	private string
}

// NotWire carries no json tags anywhere: not a wire struct, exempt.
type NotWire struct {
	A string
	B int
}

var _ = Msg{}.private
