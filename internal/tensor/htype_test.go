package tensor

import (
	"testing"
)

func TestParseHtypeBase(t *testing.T) {
	for _, name := range []string{"generic", "image", "video", "audio", "class_label", "bbox", "binary_mask", "segment_mask", "text", "embedding", "json", "dicom"} {
		spec, err := ParseHtype(name)
		if err != nil {
			t.Fatalf("ParseHtype(%q): %v", name, err)
		}
		if spec.Base.Name != name || spec.Sequence || spec.Link {
			t.Fatalf("ParseHtype(%q) = %+v", name, spec)
		}
		if spec.String() != name {
			t.Fatalf("round trip = %q", spec.String())
		}
	}
	spec, err := ParseHtype("")
	if err != nil || spec.Base.Name != "generic" {
		t.Fatalf("empty htype should be generic: %+v, %v", spec, err)
	}
}

func TestParseHtypeMeta(t *testing.T) {
	spec, err := ParseHtype("sequence[image]")
	if err != nil || !spec.Sequence || spec.Link || spec.Base.Name != "image" {
		t.Fatalf("sequence[image] = %+v, %v", spec, err)
	}
	if spec.String() != "sequence[image]" {
		t.Fatalf("String = %q", spec.String())
	}

	spec, err = ParseHtype("link[image]")
	if err != nil || spec.Sequence || !spec.Link || spec.Base.Name != "image" {
		t.Fatalf("link[image] = %+v, %v", spec, err)
	}

	spec, err = ParseHtype("sequence[link[image]]")
	if err != nil || !spec.Sequence || !spec.Link {
		t.Fatalf("sequence[link[image]] = %+v, %v", spec, err)
	}
	if spec.String() != "sequence[link[image]]" {
		t.Fatalf("String = %q", spec.String())
	}

	for _, bad := range []string{"sequence[sequence[image]]", "link[link[image]]", "sequence[nope]", "nope", "sequence[image"} {
		if _, err := ParseHtype(bad); err == nil {
			t.Errorf("ParseHtype(%q) should error", bad)
		}
	}
}

func TestImageHtypeValidation(t *testing.T) {
	spec, _ := ParseHtype("image")
	h := spec.Base

	ok := MustNew(UInt8, 4, 4, 3)
	if err := h.Check(ok); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	gray := MustNew(UInt8, 4, 4)
	if err := h.Check(gray); err != nil {
		t.Fatalf("grayscale rejected: %v", err)
	}
	if err := h.Check(MustNew(UInt8, 4, 4, 2)); err == nil {
		t.Fatal("2-channel image should be rejected")
	}
	if err := h.Check(MustNew(Float32, 4, 4, 3)); err == nil {
		t.Fatal("float image should be rejected")
	}
	if err := h.Check(MustNew(UInt8, 4)); err == nil {
		t.Fatal("1-d image should be rejected")
	}
	if err := h.Check(MustNew(UInt8, 1, 4, 4, 3)); err == nil {
		t.Fatal("4-d image should be rejected")
	}
}

func TestBBoxHtypeValidation(t *testing.T) {
	spec, _ := ParseHtype("bbox")
	h := spec.Base
	if err := h.Check(MustNew(Float32, 5, 4)); err != nil {
		t.Fatalf("[N,4] bbox rejected: %v", err)
	}
	if err := h.Check(MustNew(Float32, 4)); err != nil {
		t.Fatalf("[4] bbox rejected: %v", err)
	}
	if err := h.Check(MustNew(Float32, 5, 3)); err == nil {
		t.Fatal("[N,3] bbox should be rejected")
	}
}

func TestClassLabelDefaults(t *testing.T) {
	spec, _ := ParseHtype("class_label")
	h := spec.Base
	if h.DefaultChunkCompression != "lz4" {
		t.Fatalf("class_label chunk compression = %q, want lz4 (paper §5)", h.DefaultChunkCompression)
	}
	if err := h.Check(Scalar(Int32, 3)); err != nil {
		t.Fatalf("scalar label rejected: %v", err)
	}
	if err := h.Check(MustNew(Int32, 2, 2)); err == nil {
		t.Fatal("2-d label should be rejected")
	}
}

func TestImageDefaultsMatchPaper(t *testing.T) {
	spec, _ := ParseHtype("image")
	if spec.Base.DefaultSampleCompression != "jpeg" {
		t.Fatalf("image sample compression = %q, want jpeg (paper §5)", spec.Base.DefaultSampleCompression)
	}
	if spec.Base.DefaultDtype != UInt8 {
		t.Fatalf("image default dtype = %v, want uint8", spec.Base.DefaultDtype)
	}
}
