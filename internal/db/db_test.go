package db

import (
	"testing"

	"mpcjoin/internal/hypergraph"
	"mpcjoin/internal/relation"
)

func inst() (Instance[int64], *hypergraph.Query) {
	q := hypergraph.MatMulQuery()
	r1 := relation.New[int64]("A", "B")
	r1.Append(1, 1, 2)
	r2 := relation.New[int64]("B", "C")
	r2.Append(1, 2, 3)
	r2.Append(1, 2, 4)
	return Instance[int64]{"R1": r1, "R2": r2}, q
}

func TestValidateOK(t *testing.T) {
	i, q := inst()
	if err := Validate(q, i); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	i, q := inst()

	missing := Instance[int64]{"R1": i["R1"]}
	if err := Validate(q, missing); err == nil {
		t.Fatal("missing relation must fail")
	}

	extra := Instance[int64]{"R1": i["R1"], "R2": i["R2"], "R3": i["R1"]}
	if err := Validate(q, extra); err == nil {
		t.Fatal("extra relation must fail")
	}

	misnamed := Instance[int64]{"R1": i["R1"], "RX": i["R2"]}
	if err := Validate(q, misnamed); err == nil {
		t.Fatal("misnamed relation must fail")
	}

	wrongArity := Instance[int64]{"R1": i["R1"], "R2": relation.New[int64]("B")}
	if err := Validate(q, wrongArity); err == nil {
		t.Fatal("wrong arity must fail")
	}

	wrongAttr := Instance[int64]{"R1": i["R1"], "R2": relation.New[int64]("B", "Z")}
	if err := Validate(q, wrongAttr); err == nil {
		t.Fatal("wrong attribute must fail")
	}
}

func TestSizes(t *testing.T) {
	i, _ := inst()
	if InputSize(i) != 3 {
		t.Fatalf("InputSize = %d", InputSize(i))
	}
}

func TestCloneIsDeep(t *testing.T) {
	i, _ := inst()
	c := Clone(i)
	c["R1"].Append(9, 7, 7)
	if i["R1"].Len() == c["R1"].Len() {
		t.Fatal("clone shares storage")
	}
	c["R2"].Rows[0].W = 99
	if i["R2"].Rows[0].W == 99 {
		t.Fatal("clone shares rows")
	}
}
