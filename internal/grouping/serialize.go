package grouping

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/ts"
)

// Binary base format, little endian throughout:
//
//	magic   [8]byte  "ONEXBAS1"
//	payload          everything below, CRC-covered
//	  u64 dataset checksum, u8 norm kind
//	  str dataset name
//	  f64 ST, u32 minLen, u32 maxLen
//	  build stats: i64 durationNs, u64 windows, u64 groups, u64 ed, u64 rehomed, u64 reseeded
//	  u32 numLengths
//	  per length (ascending): u32 length, u32 numGroups
//	    per group: f64[length] rep, u32 numMembers, per member (u32 series, u32 start)
//	crc32   u32     IEEE CRC of the payload
const baseMagic = "ONEXBAS1"

type countingWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
	err error
}

func (cw *countingWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	if _, err := cw.w.Write(p); err != nil {
		cw.err = err
		return
	}
	cw.crc.Write(p)
}

func (cw *countingWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	cw.write(buf[:])
}

func (cw *countingWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	cw.write(buf[:])
}

func (cw *countingWriter) f64(v float64) { cw.u64(math.Float64bits(v)) }

func (cw *countingWriter) str(s string) {
	cw.u32(uint32(len(s)))
	cw.write([]byte(s))
}

type countingReader struct {
	r   *bufio.Reader
	crc hash.Hash32
	err error
}

func (cr *countingReader) read(p []byte) {
	if cr.err != nil {
		return
	}
	if _, err := io.ReadFull(cr.r, p); err != nil {
		cr.err = err
		return
	}
	cr.crc.Write(p)
}

func (cr *countingReader) u32() uint32 {
	var buf [4]byte
	cr.read(buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

func (cr *countingReader) u64() uint64 {
	var buf [8]byte
	cr.read(buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

func (cr *countingReader) f64() float64 { return math.Float64frombits(cr.u64()) }

func (cr *countingReader) str(maxLen uint32) string {
	n := cr.u32()
	if cr.err != nil {
		return ""
	}
	if n > maxLen {
		cr.err = fmt.Errorf("grouping: string length %d exceeds limit %d", n, maxLen)
		return ""
	}
	buf := make([]byte, n)
	cr.read(buf)
	return string(buf)
}

// Write serializes the base.
func (b *Base) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(baseMagic); err != nil {
		return fmt.Errorf("grouping: Write: %w", err)
	}
	cw := &countingWriter{w: bw, crc: crc32.NewIEEE()}
	cw.u64(b.DatasetSum)
	cw.write([]byte{byte(b.Norm)})
	cw.str(b.DatasetName)
	cw.f64(b.ST)
	cw.u32(uint32(b.MinLength))
	cw.u32(uint32(b.MaxLength))
	cw.u64(uint64(b.BuildStats.Duration.Nanoseconds()))
	cw.u64(uint64(b.BuildStats.NumWindows))
	cw.u64(uint64(b.BuildStats.NumGroups))
	cw.u64(uint64(b.BuildStats.EDComputed))
	cw.u64(uint64(b.BuildStats.Rehomed))
	cw.u64(uint64(b.BuildStats.Reseeded))

	lengths := b.Lengths()
	cw.u32(uint32(len(lengths)))
	for _, l := range lengths {
		lg := b.ByLength[l]
		cw.u32(uint32(l))
		cw.u32(uint32(len(lg.Groups)))
		for _, g := range lg.Groups {
			for _, v := range g.Rep {
				cw.f64(v)
			}
			cw.u32(uint32(len(g.Members)))
			for _, m := range g.Members {
				cw.u32(uint32(m.Series))
				cw.u32(uint32(m.Start))
			}
		}
	}
	if cw.err != nil {
		return fmt.Errorf("grouping: Write: %w", cw.err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.crc.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("grouping: Write: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("grouping: Write: %w", err)
	}
	return nil
}

// Read deserializes a base written by Write, verifying magic and CRC.
func Read(r io.Reader) (*Base, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(baseMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("grouping: Read: %w", err)
	}
	if string(magic) != baseMagic {
		return nil, fmt.Errorf("grouping: Read: bad magic %q", magic)
	}
	cr := &countingReader{r: br, crc: crc32.NewIEEE()}
	b := &Base{ByLength: make(map[int]*LengthGroups)}
	b.DatasetSum = cr.u64()
	var kindBuf [1]byte
	cr.read(kindBuf[:])
	b.Norm = ts.NormKind(kindBuf[0])
	b.DatasetName = cr.str(1 << 20)
	b.ST = cr.f64()
	b.MinLength = int(cr.u32())
	b.MaxLength = int(cr.u32())
	b.BuildStats.Duration = time.Duration(cr.u64())
	b.BuildStats.NumWindows = int(cr.u64())
	b.BuildStats.NumGroups = int(cr.u64())
	b.BuildStats.EDComputed = int(cr.u64())
	b.BuildStats.Rehomed = int(cr.u64())
	b.BuildStats.Reseeded = int(cr.u64())

	numLengths := cr.u32()
	if cr.err == nil && numLengths > 1<<24 {
		return nil, fmt.Errorf("grouping: Read: implausible length count %d", numLengths)
	}
	for li := uint32(0); li < numLengths && cr.err == nil; li++ {
		length := int(cr.u32())
		numGroups := cr.u32()
		if cr.err != nil {
			break
		}
		if length <= 0 || numGroups > 1<<28 {
			return nil, fmt.Errorf("grouping: Read: implausible length %d / group count %d", length, numGroups)
		}
		lg := &LengthGroups{Length: length, Groups: make([]*Group, 0, numGroups), Ends: make([]float64, 0, 2*numGroups)}
		for gi := uint32(0); gi < numGroups && cr.err == nil; gi++ {
			rep := make([]float64, length)
			for i := range rep {
				rep[i] = cr.f64()
			}
			numMembers := cr.u32()
			if cr.err != nil {
				break
			}
			if numMembers > 1<<28 {
				return nil, fmt.Errorf("grouping: Read: implausible member count %d", numMembers)
			}
			members := make([]ts.SubSeq, numMembers)
			for mi := range members {
				members[mi] = ts.SubSeq{
					Series: int(cr.u32()),
					Start:  int(cr.u32()),
					Length: length,
				}
			}
			lg.Append(&Group{Length: length, Rep: rep, Members: members})
		}
		b.ByLength[length] = lg
	}
	if cr.err != nil {
		return nil, fmt.Errorf("grouping: Read: %w", cr.err)
	}
	wantCRC := cr.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("grouping: Read: trailing CRC: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != wantCRC {
		return nil, fmt.Errorf("grouping: Read: CRC mismatch: stored %08x, computed %08x", got, wantCRC)
	}
	// The indexed-series set is not part of the wire format; recompute it
	// from the membership so AddSeries keeps its O(1) double-insert check
	// after a load.
	b.reindexSeries()
	return b, nil
}

// DeriveRepIsFirst sets Group.RepIsFirst on every singleton group of a base
// read from disk, whose wire format does not carry the bit, by comparing
// the member with the representative in d, the normalized dataset the base
// indexes. Only singletons are read: the bit matters nowhere else. It pins
// mmap-backed values while it reads them, and rejects a member outside d.
func (b *Base) DeriveRepIsFirst(d *ts.Dataset) error {
	release, err := d.Pin()
	if err != nil {
		return fmt.Errorf("grouping: DeriveRepIsFirst: %w", err)
	}
	defer release()
	for _, lg := range b.ByLength {
		for _, g := range lg.Groups {
			if len(g.Members) != 1 {
				continue
			}
			m := g.Members[0]
			if err := m.Validate(d); err != nil {
				return fmt.Errorf("grouping: DeriveRepIsFirst: %w", err)
			}
			g.RepIsFirst = slices.Equal(m.Values(d), g.Rep)
		}
	}
	return nil
}
