package tensor

import (
	"fmt"
	"strings"
)

// Htype defines expectations on the samples of a tensor (§3.3): dtype,
// dimensionality, and default compressions. Concrete htypes (image, bbox,
// class_label, ...) inherit from the generic htype; meta-htypes wrap a base
// htype to add sequence or link semantics while preserving its validation.
type Htype struct {
	// Name is the registered identifier ("image", "class_label", ...).
	Name string
	// DefaultDtype is assumed when the tensor declares none.
	DefaultDtype Dtype
	// MinNDim/MaxNDim bound per-sample rank (excluding the batch axis).
	// MaxNDim == 0 means unconstrained.
	MinNDim, MaxNDim int
	// AllowedDtypes restricts element types; empty means any.
	AllowedDtypes []Dtype
	// DefaultSampleCompression is the media codec applied per sample
	// ("jpeg" for images); empty means none.
	DefaultSampleCompression string
	// DefaultChunkCompression is the byte codec applied per chunk
	// ("lz4" for class labels); empty means none.
	DefaultChunkCompression string
	// Validate applies extra structural checks beyond rank and dtype.
	Validate func(*NDArray) error
}

// Check validates one sample against the htype contract.
func (h *Htype) Check(a *NDArray) error {
	nd := a.NDim()
	if nd < h.MinNDim {
		return fmt.Errorf("htype %s: sample rank %d below minimum %d", h.Name, nd, h.MinNDim)
	}
	if h.MaxNDim > 0 && nd > h.MaxNDim {
		return fmt.Errorf("htype %s: sample rank %d above maximum %d", h.Name, nd, h.MaxNDim)
	}
	if len(h.AllowedDtypes) > 0 {
		ok := false
		for _, d := range h.AllowedDtypes {
			if a.Dtype() == d {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("htype %s: dtype %s not allowed", h.Name, a.Dtype())
		}
	}
	if h.Validate != nil {
		return h.Validate(a)
	}
	return nil
}

var htypes = map[string]*Htype{}

func registerHtype(h *Htype) {
	if _, dup := htypes[h.Name]; dup {
		panic(fmt.Sprintf("tensor: duplicate htype %q", h.Name))
	}
	htypes[h.Name] = h
}

// HtypeSpec is a parsed htype expression: a base htype plus optional
// sequence[...] and link[...] meta wrappers (§3.3).
type HtypeSpec struct {
	// Base is the underlying htype.
	Base *Htype
	// Sequence marks a sequence[X] tensor whose rows are ordered lists of
	// X samples (e.g. image sequences / video frames).
	Sequence bool
	// Link marks a link[X] tensor whose stored samples are references
	// (URLs) to externally stored data resolved at read time (§4.5).
	Link bool
}

// String reconstructs the htype expression.
func (s HtypeSpec) String() string {
	name := s.Base.Name
	if s.Link {
		name = "link[" + name + "]"
	}
	if s.Sequence {
		name = "sequence[" + name + "]"
	}
	return name
}

// ParseHtype resolves an htype expression such as "image",
// "sequence[image]", "link[image]" or "sequence[link[image]]". The empty
// string resolves to generic.
func ParseHtype(expr string) (HtypeSpec, error) {
	spec := HtypeSpec{}
	name := strings.TrimSpace(expr)
	if name == "" {
		name = "generic"
	}
	for {
		switch {
		case strings.HasPrefix(name, "sequence[") && strings.HasSuffix(name, "]"):
			if spec.Sequence {
				return spec, fmt.Errorf("tensor: nested sequence in %q", expr)
			}
			spec.Sequence = true
			name = name[len("sequence[") : len(name)-1]
		case strings.HasPrefix(name, "link[") && strings.HasSuffix(name, "]"):
			if spec.Link {
				return spec, fmt.Errorf("tensor: nested link in %q", expr)
			}
			spec.Link = true
			name = name[len("link[") : len(name)-1]
		default:
			h, ok := htypes[name]
			if !ok {
				return spec, fmt.Errorf("tensor: unknown htype %q", expr)
			}
			spec.Base = h
			return spec, nil
		}
	}
}

func init() {
	registerHtype(&Htype{
		Name: "generic",
	})
	registerHtype(&Htype{
		Name:                     "image",
		DefaultDtype:             UInt8,
		MinNDim:                  2, // HW grayscale
		MaxNDim:                  3, // HWC
		AllowedDtypes:            []Dtype{UInt8, UInt16},
		DefaultSampleCompression: "jpeg",
		Validate: func(a *NDArray) error {
			if a.NDim() == 3 {
				c := a.Shape()[2]
				if c != 1 && c != 3 && c != 4 {
					return fmt.Errorf("image: channel count %d not in {1,3,4}", c)
				}
			}
			return nil
		},
	})
	registerHtype(&Htype{
		Name:          "video",
		DefaultDtype:  UInt8,
		MinNDim:       4, // THWC
		MaxNDim:       4,
		AllowedDtypes: []Dtype{UInt8},
	})
	registerHtype(&Htype{
		Name:          "audio",
		DefaultDtype:  Float32,
		MinNDim:       1, // samples
		MaxNDim:       2, // samples x channels
		AllowedDtypes: []Dtype{Float32, Float64, Int16},
	})
	registerHtype(&Htype{
		Name:                    "class_label",
		DefaultDtype:            Int32,
		MaxNDim:                 1, // scalar or multi-label vector
		AllowedDtypes:           []Dtype{Int32, Int64, UInt8, UInt16, UInt32},
		DefaultChunkCompression: "lz4",
	})
	registerHtype(&Htype{
		Name:          "bbox",
		DefaultDtype:  Float32,
		MinNDim:       1,
		MaxNDim:       2, // [4] or [N,4]
		AllowedDtypes: []Dtype{Float32, Float64, Int32},
		Validate: func(a *NDArray) error {
			s := a.Shape()
			if s[len(s)-1] != 4 {
				return fmt.Errorf("bbox: last dimension must be 4, got %d", s[len(s)-1])
			}
			return nil
		},
	})
	registerHtype(&Htype{
		Name:                    "binary_mask",
		DefaultDtype:            Bool,
		MinNDim:                 2,
		MaxNDim:                 3,
		AllowedDtypes:           []Dtype{Bool, UInt8},
		DefaultChunkCompression: "lz4",
	})
	registerHtype(&Htype{
		Name:                    "segment_mask",
		DefaultDtype:            Int32,
		MinNDim:                 2,
		MaxNDim:                 2,
		AllowedDtypes:           []Dtype{Int32, UInt8, UInt16},
		DefaultChunkCompression: "lz4",
	})
	registerHtype(&Htype{
		Name:                    "text",
		DefaultDtype:            UInt8,
		MinNDim:                 1,
		MaxNDim:                 1,
		AllowedDtypes:           []Dtype{UInt8},
		DefaultChunkCompression: "lz4",
	})
	registerHtype(&Htype{
		Name:          "embedding",
		DefaultDtype:  Float32,
		MinNDim:       1,
		MaxNDim:       1,
		AllowedDtypes: []Dtype{Float32, Float64},
	})
	registerHtype(&Htype{
		Name:         "json",
		DefaultDtype: UInt8,
		MinNDim:      1,
		MaxNDim:      1,
	})
	registerHtype(&Htype{
		Name:         "dicom",
		DefaultDtype: UInt8,
		MinNDim:      1,
		MaxNDim:      3,
	})
}
