package circuits

import (
	"strings"
	"testing"
)

func TestRegistryBuildsBuiltins(t *testing.T) {
	for _, name := range []string{"foldedcascode", "fc", "miller", "ota", "OTA"} {
		p, err := Build(name)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("Build(%q) problem invalid: %v", name, err)
		}
	}
}

func TestRegistryUnknownNameListsRegistered(t *testing.T) {
	_, err := Build("nonexistent")
	if err == nil {
		t.Fatal("expected an unknown-circuit error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nonexistent"`) {
		t.Errorf("error %q does not quote the unknown name", msg)
	}
	for _, name := range []string{"foldedcascode", "miller", "ota"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered circuit %q", msg, name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names() = %v, want at least the 4 built-ins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}
