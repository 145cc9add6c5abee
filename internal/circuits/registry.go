package circuits

import (
	"fmt"
	"sort"
	"strings"

	"specwise/internal/problem"
)

// builtins maps request-level circuit names to problem constructors, so
// the job service treats problems as data. Names are lower case; Build
// matches them case-insensitively. The map is never written.
var builtins = map[string]func() *problem.Problem{
	"foldedcascode": FoldedCascodeProblem,
	"fc":            FoldedCascodeProblem, // historical short name
	"miller":        MillerProblem,
	"ota":           OTAProblem,
}

// Names returns the circuit names Build accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build constructs the named circuit's problem, or an error listing the
// known names.
func Build(name string) (*problem.Problem, error) {
	build, ok := builtins[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("circuits: unknown circuit %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return build(), nil
}
