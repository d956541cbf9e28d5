// Command deeplake is the CLI for Deep Lake datasets on local filesystem
// storage: create datasets, add tensors, ingest synthetic or CSV data,
// inspect, run TQL queries, and drive version control (commit, checkout,
// branch, log, diff, merge) — the workflows of §4 and §5.
//
// Usage:
//
//	deeplake create  -path DIR -name NAME
//	deeplake info    -path DIR
//	deeplake tensor  -path DIR -tensor NAME [-htype H] [-dtype D]
//	deeplake ingest  -path DIR -csv FILE [-commit MSG]
//	deeplake synth   -path DIR -n N [-side PX]         (synthetic images+labels)
//	deeplake query   -path DIR -q "SELECT ..." [-explain]
//	deeplake commit  -path DIR -m MESSAGE
//	deeplake checkout -path DIR -ref REF [-create]
//	deeplake log     -path DIR
//	deeplake branch  -path DIR
//	deeplake diff    -path DIR -a REF -b REF
//	deeplake merge   -path DIR -from BRANCH [-theirs]
//	deeplake fsck    -path DIR [-repair]
//
// fsck walks the manifest (dataset.json → roots/<gen> → versions/<vid>/
// state.json) against stored objects — missing or unparseable state, missing
// chunks, orphaned blobs from dead generations, checksum mismatches — and
// exits non-zero when the dataset is not clean. With -repair it collects the
// garbage; missing or corrupt data is reported but cannot be repaired.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/tql"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		path    = fs.String("path", "", "dataset directory")
		name    = fs.String("name", "dataset", "dataset name (create)")
		tname   = fs.String("tensor", "", "tensor name")
		htype   = fs.String("htype", "", "tensor htype")
		dtype   = fs.String("dtype", "", "tensor dtype")
		csvPath = fs.String("csv", "", "csv file to ingest")
		commit  = fs.String("commit", "", "commit message after ingest")
		n       = fs.Int("n", 100, "synthetic sample count")
		side    = fs.Int("side", 64, "synthetic image edge length")
		q       = fs.String("q", "", "TQL query")
		explain = fs.Bool("explain", false, "print the query plan instead of executing")
		msg     = fs.String("m", "", "commit message")
		ref     = fs.String("ref", "", "branch or commit ref")
		create  = fs.Bool("create", false, "create the branch on checkout")
		refA    = fs.String("a", "", "diff: left ref")
		refB    = fs.String("b", "", "diff: right ref")
		from    = fs.String("from", "", "merge: source branch")
		theirs  = fs.Bool("theirs", false, "merge: prefer source on conflict")
		repair  = fs.Bool("repair", false, "fsck: repair what can be repaired")
	)
	fs.Parse(os.Args[2:])
	if *path == "" {
		fatal("missing -path")
	}
	ctx := context.Background()
	store, err := storage.NewFS(*path)
	if err != nil {
		fatal("%v", err)
	}

	switch cmd {
	case "create":
		ds, err := core.Create(ctx, store, *name)
		check(err)
		check(ds.Flush(ctx))
		fmt.Printf("created dataset %q at %s (branch %s)\n", *name, *path, ds.Branch())

	case "info":
		ds := open(ctx, store)
		fmt.Printf("dataset %q  branch=%s  version=%s  rows=%d\n", ds.Name(), ds.Branch(), ds.Version(), ds.NumRows())
		for _, tn := range ds.Tensors() {
			t := ds.Tensor(tn)
			m := t.Meta()
			fmt.Printf("  %-24s htype=%-16s dtype=%-8s len=%-8d chunks=%d\n",
				tn, m.Htype, m.Dtype, m.Length, t.NumChunks())
		}

	case "tensor":
		if *tname == "" {
			fatal("missing -tensor")
		}
		ds := open(ctx, store)
		spec := core.TensorSpec{Name: *tname, Htype: *htype}
		if *dtype != "" {
			d, err := tensor.ParseDtype(*dtype)
			check(err)
			spec.Dtype = d
		}
		_, err := ds.CreateTensor(ctx, spec)
		check(err)
		check(ds.Flush(ctx))
		fmt.Printf("created tensor %q\n", *tname)

	case "ingest":
		if *csvPath == "" {
			fatal("missing -csv")
		}
		ds := open(ctx, store)
		f, err := os.Open(*csvPath)
		check(err)
		defer f.Close()
		stats, err := connector.Sync(ctx, connector.CSVSource{SourceName: *csvPath, R: f}, ds,
			connector.SyncOptions{CreateTensors: true, CommitMessage: *commit})
		check(err)
		fmt.Printf("ingested %d records", stats.Records)
		if stats.Commit != "" {
			fmt.Printf(" (commit %s)", stats.Commit)
		}
		fmt.Println()

	case "synth":
		ds := open(ctx, store)
		images := ds.Tensor("images")
		if images == nil {
			images, err = ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "image"})
			check(err)
		}
		labels := ds.Tensor("labels")
		if labels == nil {
			labels, err = ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label"})
			check(err)
		}
		spec := workload.ImageSpec{Height: *side, Width: *side, Channels: 3, Seed: 1}
		for i := 0; i < *n; i++ {
			check(images.Append(ctx, spec.Image(i)))
			check(labels.Append(ctx, workload.Label(1, i, 10)))
		}
		check(ds.Flush(ctx))
		fmt.Printf("appended %d synthetic samples\n", *n)

	case "query":
		if *q == "" {
			fatal("missing -q")
		}
		if *explain {
			parsed, err := tql.Parse(*q)
			check(err)
			plan, err := tql.Compile(parsed)
			check(err)
			fmt.Println(plan.Explain())
			return
		}
		ds := open(ctx, store)
		v, err := tql.Run(ctx, ds, *q)
		check(err)
		fmt.Printf("%d rows, columns %v, sparse=%v\n", v.Len(), v.ColumnNames(), v.IsSparse())
		for i := 0; i < v.Len() && i < 10; i++ {
			src, _ := v.SourceRow(i)
			fmt.Printf("  row %d (source %d)\n", i, src)
		}
		if v.Len() > 10 {
			fmt.Printf("  ... %d more\n", v.Len()-10)
		}

	case "commit":
		if *msg == "" {
			fatal("missing -m")
		}
		ds := open(ctx, store)
		id, err := ds.Commit(ctx, *msg)
		check(err)
		fmt.Printf("committed %s\n", id)

	case "checkout":
		if *ref == "" {
			fatal("missing -ref")
		}
		ds := open(ctx, store)
		check(ds.Checkout(ctx, *ref, *create))
		fmt.Printf("now at branch=%q version=%s\n", ds.Branch(), ds.Version())

	case "log":
		ds := open(ctx, store)
		log, err := ds.Log()
		check(err)
		for _, node := range log {
			fmt.Printf("%s  %s  %s\n", node.ID, node.CommittedAt.Format("2006-01-02 15:04:05"), node.Message)
		}

	case "branch":
		ds := open(ctx, store)
		for _, b := range ds.Branches() {
			marker := " "
			if b == ds.Branch() {
				marker = "*"
			}
			fmt.Printf("%s %s\n", marker, b)
		}

	case "diff":
		if *refA == "" || *refB == "" {
			fatal("missing -a/-b")
		}
		ds := open(ctx, store)
		d, err := ds.Diff(ctx, *refA, *refB)
		check(err)
		fmt.Printf("base %s\n", d.Base)
		printSide := func(label string, side map[string]core.TensorDiff) {
			fmt.Printf("%s:\n", label)
			for tn, td := range side {
				fmt.Printf("  %-24s +%d samples, %d updated\n", tn, td.Added, len(td.Updated))
			}
		}
		printSide(*refA, d.Left)
		printSide(*refB, d.Right)

	case "merge":
		if *from == "" {
			fatal("missing -from")
		}
		ds := open(ctx, store)
		policy := core.MergeOurs
		if *theirs {
			policy = core.MergeTheirs
		}
		check(ds.Merge(ctx, *from, policy))
		fmt.Printf("merged %s into %s\n", *from, ds.Branch())

	case "fsck":
		rep, err := core.Fsck(ctx, store, core.FsckOptions{Repair: *repair})
		check(err)
		fmt.Print(rep.Format())
		if !rep.Clean() {
			if *repair {
				fatal("fsck: unrepairable issues remain")
			}
			fatal("fsck: issues found (re-run with -repair to fix the repairable ones)")
		}

	default:
		usage()
	}
}

func open(ctx context.Context, store storage.Provider) *core.Dataset {
	ds, err := core.Open(ctx, store)
	check(err)
	return ds
}

func check(err error) {
	if err != nil {
		fatal("%v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: deeplake <create|info|tensor|ingest|synth|query|commit|checkout|log|branch|diff|merge|fsck> [flags]")
	os.Exit(2)
}
