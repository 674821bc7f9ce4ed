package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"quasar/internal/experiments"
)

// TestViewsPrintTheirOwnSection runs each name that is a second view of
// another artifact's run alone: it must print its own section, not its
// sibling's.
func TestViewsPrintTheirOwnSection(t *testing.T) {
	for _, tc := range []struct{ name, header string }{
		{"table3", "== Table 3: "},
		{"fig7", "== Figure 7: "},
		{"fig10", "== Figure 10: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{tc.name}, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(out.String(), tc.header) {
				t.Fatalf("output does not open with %q:\n%s", tc.header, out.String())
			}
			if n := strings.Count(out.String(), "== "); n != 1 {
				t.Fatalf("%d section headers, want 1:\n%s", n, out.String())
			}
		})
	}
}

func TestUnknownArtifactRunsNothing(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"table1", "nope"}, &out)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("err = %v, want a usage error naming \"nope\"", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed before rejecting the command line:\n%s", out.String())
	}
}

func TestQuickFlagIsGone(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "table1"}, &out); !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want a usage error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("printed under a rejected flag:\n%s", out.String())
	}
}

// TestNoArgumentsPicksTheWholeCatalogue pins the catalogue's names and
// order (and so that no name repeats): the full suite prints every
// artifact once, in the paper's order.
func TestNoArgumentsPicksTheWholeCatalogue(t *testing.T) {
	picked, err := pick(experiments.Artifacts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, a := range picked {
		got = append(got, a.Name)
	}
	want := []string{"fig1", "fig2", "table1", "table2", "fig3", "fig5",
		"table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"stragglers", "phases", "overheads", "ablations", "availability",
		"slodetect"}
	if !slices.Equal(got, want) {
		t.Fatalf("picked %v, want %v", got, want)
	}
}
