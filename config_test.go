package repro

import (
	"strings"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/fleet"
	"repro/internal/intermittent"
	"repro/internal/policysim"
)

// TestInvalidConfigsAreErrors feeds invalid detector configurations to
// every public entry point that builds detectors and requires an error
// from each. clank.New panics on an invalid config; this pins that no
// entry point reaches it without validating first.
func TestInvalidConfigsAreErrors(t *testing.T) {
	img, err := ccc.Compile("int main(void) { __output(1u); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	ok := clank.Config{ReadFirst: 4, WriteFirst: 4, WriteBack: 2, AddrPrefix: 2, PrefixLowBits: 6}
	bad := map[string]func(*clank.Config){
		"no-read-first":  func(c *clank.Config) { c.ReadFirst = 0 },
		"neg-wf":         func(c *clank.Config) { c.WriteFirst = -1 },
		"neg-wb":         func(c *clank.Config) { c.WriteBack = -1 },
		"neg-ap":         func(c *clank.Config) { c.AddrPrefix = -1 },
		"neg-everything": func(c *clank.Config) { c.WriteFirst, c.WriteBack, c.AddrPrefix = -1, -1, -1 },
	}
	entries := map[string]func(clank.Config) error{
		"NewMachine": func(cfg clank.Config) error {
			_, err := intermittent.NewMachine(img, intermittent.Options{Config: cfg})
			return err
		},
		"BuildSharedProgram": func(cfg clank.Config) error {
			_, err := intermittent.BuildSharedProgram(img, intermittent.Options{Config: cfg})
			return err
		},
		"Simulate": func(cfg clank.Config) error {
			_, err := policysim.Simulate(nil, 0, cfg, policysim.Options{})
			return err
		},
		"NewBatch": func(cfg clank.Config) error {
			_, err := policysim.NewBatch(policysim.NewBatchTrace(nil, 0, 0, 0), []policysim.Job{{Config: cfg}})
			return err
		},
		"fleet.Run": func(cfg clank.Config) error {
			_, err := fleet.Run(img, fleet.Options{Devices: 1, Workers: 1, Config: cfg})
			return err
		},
	}
	for name, entry := range entries {
		if err := entry(ok); err != nil {
			t.Fatalf("%s rejected the valid config: %v", name, err)
		}
		for cname, mutate := range bad {
			cfg := ok
			mutate(&cfg)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%s) panicked: %v", name, cname, r)
					}
				}()
				if err := entry(cfg); err == nil || !strings.Contains(err.Error(), "clank:") {
					t.Errorf("%s(%s) = %v, want a clank config error", name, cname, err)
				}
			}()
		}
	}
}
