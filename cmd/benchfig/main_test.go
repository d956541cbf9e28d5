package main

import (
	"slices"
	"strings"
	"testing"
)

func names(rs []runner) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.name)
	}
	return out
}

func TestSelectRunners(t *testing.T) {
	all := append(names(figures), names(ablations)...)
	for _, tc := range []struct {
		name    string
		targets []string
		want    []string // runner names in run order
		wantErr string
	}{
		{name: "no target runs everything", want: all},
		{name: "all", targets: []string{"all"}, want: all},
		{name: "one figure", targets: []string{"fig7"}, want: []string{"fig7"}},
		{name: "table order, each once", targets: []string{"ablation-cache", "fig9", "fig6", "fig9"}, want: []string{"fig6", "fig9", "ablation-cache"}},
		{name: "ablations group", targets: []string{"ablations"}, want: names(ablations)},
		{name: "unknown", targets: []string{"nosuch"}, wantErr: `unknown target "nosuch"`},
		{name: "retired scenario", targets: []string{"chaos"}, wantErr: `unknown target "chaos"`},
		{name: "known and unknown mixed runs nothing", targets: []string{"fig7", "fig77"}, wantErr: `unknown target "fig77"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := selectRunners(tc.targets)
			if tc.wantErr == "" {
				if err != nil || !slices.Equal(names(got), tc.want) {
					t.Fatalf("selected %v, %v; want %v", names(got), err, tc.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "fig6") || !strings.Contains(err.Error(), "ablation-cache") {
				t.Fatalf("error does not list the valid targets: %v", err)
			}
			if got != nil {
				t.Fatalf("selected %v alongside an error", names(got))
			}
		})
	}
}
