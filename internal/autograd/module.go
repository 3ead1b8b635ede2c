// Package autograd rebuilds the PyTorch execution surface that SSDTrain
// (the paper's §III-B) is implemented against: a module tree, forward and
// backward module hooks, saved-tensor pack/unpack hooks, and an executor
// that runs a training step on the simulated GPU in virtual time. The
// tensor cache in internal/core plugs into this package exactly the way
// the paper's cache plugs into PyTorch — via hooks only, with no changes
// to the runtime itself (the interoperability property of Table I).
package autograd

import (
	"fmt"
	"strings"
)

// Module is a node in the model tree. Concrete layers embed or reference
// one; the hook machinery cares only about identity and names.
type Module struct {
	name     string
	parent   *Module
	children []*Module
}

// NewModule creates a root module.
func NewModule(name string) *Module {
	return &Module{name: name}
}

// NewModules creates a root module and one child per name, all from one
// array: a model's block modules come this way.
func NewModules(root string, children []string) *Module {
	ms := make([]Module, 1+len(children))
	kids := make([]*Module, len(children))
	for i, name := range children {
		ms[1+i] = Module{name: name, parent: &ms[0]}
		kids[i] = &ms[1+i]
	}
	ms[0] = Module{name: root, children: kids}
	return &ms[0]
}

// Child creates (and registers) a child module.
func (m *Module) Child(name string) *Module {
	c := &Module{name: name, parent: m}
	m.children = append(m.children, c)
	return c
}

// Name returns the module's local name.
func (m *Module) Name() string { return m.name }

// Path returns the dotted path from the root, e.g. "gpt.layers.3.mlp".
func (m *Module) Path() string {
	if m.parent == nil {
		return m.name
	}
	return m.parent.Path() + "." + m.name
}

// Children returns the registered child modules.
func (m *Module) Children() []*Module { return m.children }

// String renders the module path.
func (m *Module) String() string { return fmt.Sprintf("module(%s)", m.Path()) }

// pathLen returns len(m.Path()) without building the path.
func (m *Module) pathLen() int {
	if m.parent == nil {
		return len(m.name)
	}
	return m.parent.pathLen() + 1 + len(m.name)
}

// writePath writes m.Path() to sb.
func (m *Module) writePath(sb *strings.Builder) {
	if m.parent != nil {
		m.parent.writePath(sb)
		sb.WriteByte('.')
	}
	sb.WriteString(m.name)
}
