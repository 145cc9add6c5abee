package circuits

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"specwise/internal/problem"
)

// The circuit registry maps request-level circuit names to problem
// constructors, so the job service treats problems as data the same way
// the core registry treats search backends. The built-ins register
// below; embedders can add their own before serving requests.

var (
	registryMu sync.RWMutex
	registry   = map[string]func() *problem.Problem{}
)

// Register adds a named circuit constructor. Names are matched
// case-insensitively at Build (request normalization lower-cases them);
// registering a duplicate name panics, since a silent overwrite would
// change what submitted requests mean.
func Register(name string, build func() *problem.Problem) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if name == "" || build == nil {
		panic("circuits: Register with empty name or nil constructor")
	}
	name = strings.ToLower(name)
	if _, dup := registry[name]; dup {
		panic("circuits: Register called twice for " + name)
	}
	registry[name] = build
}

// Names returns the registered circuit names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build constructs the named circuit's problem, or an error listing the
// registered names.
func Build(name string) (*problem.Problem, error) {
	registryMu.RLock()
	build, ok := registry[strings.ToLower(name)]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("circuits: unknown circuit %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return build(), nil
}

func init() {
	Register("foldedcascode", FoldedCascodeProblem)
	Register("fc", FoldedCascodeProblem) // historical short name
	Register("miller", MillerProblem)
	Register("ota", OTAProblem)
}
