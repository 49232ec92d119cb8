package estimate

import "testing"

// BenchmarkSketchAlgebra times the vector operations in the shapes the
// tree fold runs them: a fan of four base-case singletons ⊕-merged into one
// (leaf + reduce), the ⊗ of two saturated sibling images, and the tagged
// carry of a small image — all at Reps 17, the planner's count at N ≈ 10⁵.
func BenchmarkSketchAlgebra(b *testing.B) {
	p := Params{k: 64, reps: 17, Seed: 1}
	set := func(lo, n uint64) Vec {
		v := NewVec(p)
		for i := lo; i < lo+n; i++ {
			v = v.Insert(i)
		}
		return v
	}
	satA, satB, small := set(0, 1000), set(5000, 1000), set(0, 4)
	var sink Vec
	b.Run("singleton-merge-fan4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			item := uint64(i) * 4
			sink = MergeVec(MergeVec(SingletonVec(p, item), SingletonVec(p, item+1)), MergeVec(SingletonVec(p, item+2), SingletonVec(p, item+3)))
		}
	})
	b.Run("product-64x64-saturated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = ProductVec(satA, satB)
		}
	})
	b.Run("tagged-carry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = TagVec(small, uint64(i))
		}
	})
	_ = sink
}
