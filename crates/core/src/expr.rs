//! Predicate and scalar expressions.
//!
//! Expressions are evaluated against self-describing tuples with the
//! *best-effort* policy of §3.3.4: a missing field or an incompatible type
//! does not raise an error to the client — the evaluating operator simply
//! discards the tuple.  Evaluation therefore returns `Result` with
//! [`EvalError`] and operators map errors to "drop".
//!
//! **Compiled evaluation.**  [`Expr::eval`] resolves every column reference
//! by name, per tuple.  Operators on the hot path instead compile the
//! expression against an interned schema once ([`Expr::compile`]) — column
//! names become positional indices, mirroring what
//! [`ColumnResolver`](crate::tuple::ColumnResolver) does for key columns —
//! and then evaluate row after row by index, over either a row-major value
//! slice or a columnar [`ColumnChunk`].
//! [`CompiledPredicate`] packages the per-schema compilation cache the way
//! selections and eddies use it.

use crate::column::{Bitmap, Column};
use crate::tuple::{ChunkRow, ColumnChunk, Schema, Tuple};
use crate::value::{Value, ValueRef};
use std::sync::Arc;

/// Why an expression could not be evaluated against a tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The tuple has no column with this name.
    MissingColumn(String),
    /// The operands had incompatible runtime types.
    TypeMismatch {
        /// Operation being attempted.
        op: &'static str,
        /// Left operand type.
        left: &'static str,
        /// Right operand type.
        right: &'static str,
    },
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Whether an ordering outcome satisfies this comparison (used by the
    /// row and column evaluation kernels here and by `pier-mqo`'s predicate
    /// index).
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The comparison that holds for `b ? a` whenever `self` holds for
    /// `a ? b` — rewrites `const op col` into `col op' const` so both shapes
    /// share one column kernel (comparability is symmetric, so the error
    /// rows are identical).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (floating point).
    Div,
}

/// A scalar or boolean expression over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal constant.
    Const(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on two numeric sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical AND (both sides must evaluate to booleans).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// True when the named string column contains the given substring
    /// (used by keyword-search queries).
    Contains(String, String),
}

impl Expr {
    /// Column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// `left op right` comparison.
    pub fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
        Expr::Cmp(op, Box::new(left), Box::new(right))
    }

    /// Convenience: `column = literal`.
    pub fn eq(column: &str, v: impl Into<Value>) -> Expr {
        Expr::cmp(CmpOp::Eq, Expr::col(column), Expr::lit(v))
    }

    /// Convenience: conjunction of a list of predicates (empty list = TRUE).
    pub fn all(preds: Vec<Expr>) -> Expr {
        preds
            .into_iter()
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
            .unwrap_or(Expr::Const(Value::Bool(true)))
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, EvalError> {
        match self {
            Expr::Column(name) => tuple
                .get(name)
                .cloned()
                .ok_or_else(|| EvalError::MissingColumn(name.clone())),
            Expr::Const(v) => Ok(v.clone()),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                match lv.compare(&rv) {
                    Some(ord) => Ok(Value::Bool(op.test(ord))),
                    None => Err(EvalError::TypeMismatch {
                        op: "compare",
                        left: lv.type_name(),
                        right: rv.type_name(),
                    }),
                }
            }
            Expr::Arith(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => {
                        let out = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => a / b,
                        };
                        // Preserve integer-ness when both inputs were ints
                        // and the operation is exact.
                        if matches!((&lv, &rv), (Value::Int(_), Value::Int(_)))
                            && out.fract() == 0.0
                            && !matches!(op, ArithOp::Div)
                        {
                            Ok(Value::Int(out as i64))
                        } else {
                            Ok(Value::Float(out))
                        }
                    }
                    _ => Err(EvalError::TypeMismatch {
                        op: "arith",
                        left: lv.type_name(),
                        right: rv.type_name(),
                    }),
                }
            }
            Expr::And(l, r) => {
                let lv = self.expect_bool(l.eval(tuple)?)?;
                if !lv {
                    return Ok(Value::Bool(false));
                }
                let rv = self.expect_bool(r.eval(tuple)?)?;
                Ok(Value::Bool(rv))
            }
            Expr::Or(l, r) => {
                let lv = self.expect_bool(l.eval(tuple)?)?;
                if lv {
                    return Ok(Value::Bool(true));
                }
                let rv = self.expect_bool(r.eval(tuple)?)?;
                Ok(Value::Bool(rv))
            }
            Expr::Not(e) => {
                let v = self.expect_bool(e.eval(tuple)?)?;
                Ok(Value::Bool(!v))
            }
            Expr::Contains(column, needle) => {
                let v = tuple
                    .get(column)
                    .cloned()
                    .ok_or_else(|| EvalError::MissingColumn(column.clone()))?;
                match v {
                    Value::Str(s) => Ok(Value::Bool(s.contains(needle.as_str()))),
                    other => Err(EvalError::TypeMismatch {
                        op: "contains",
                        left: other.type_name(),
                        right: "string",
                    }),
                }
            }
        }
    }

    fn expect_bool(&self, v: Value) -> Result<bool, EvalError> {
        v.as_bool().ok_or(EvalError::TypeMismatch {
            op: "bool",
            left: "non-bool",
            right: "bool",
        })
    }

    /// Evaluate as a predicate: `true` only when the expression cleanly
    /// evaluates to boolean true.  Missing columns and type mismatches count
    /// as "does not match" (the best-effort discard policy).
    pub fn matches(&self, tuple: &Tuple) -> bool {
        matches!(self.eval(tuple), Ok(Value::Bool(true)))
    }

    /// Compile against an interned schema: column names resolve to indices
    /// once, so evaluation is positional.  Columns the schema lacks compile
    /// to a node that reproduces [`EvalError::MissingColumn`] at evaluation
    /// time, preserving the best-effort discard semantics exactly.
    pub fn compile(&self, schema: &Arc<Schema>) -> CompiledExpr {
        CompiledExpr {
            schema: Arc::clone(schema),
            root: CompiledNode::build(self, schema),
        }
    }

    /// If this predicate constrains `column` to a single constant via
    /// equality (possibly inside a conjunction), return that constant.  Used
    /// by query dissemination to pick the equality index (§3.3.3).
    pub fn equality_constant(&self, column: &str) -> Option<Value> {
        match self {
            Expr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), Expr::Const(v)) if c == column => Some(v.clone()),
                (Expr::Const(v), Expr::Column(c)) if c == column => Some(v.clone()),
                _ => None,
            },
            Expr::And(l, r) => l
                .equality_constant(column)
                .or_else(|| r.equality_constant(column)),
            _ => None,
        }
    }
}

/// An [`Expr`] with every column reference resolved to a positional index
/// in one specific interned schema.  Produced by [`Expr::compile`]; reusable
/// for every tuple or chunk carrying that schema (checked by pointer
/// identity via [`CompiledExpr::is_for`]).
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    schema: Arc<Schema>,
    root: CompiledNode,
}

#[derive(Debug, Clone)]
enum CompiledNode {
    /// Column resolved to its index in the schema.
    Col(usize),
    /// Column the schema lacks: evaluation reproduces
    /// [`EvalError::MissingColumn`].
    Missing(String),
    Const(Value),
    Cmp(CmpOp, Box<CompiledNode>, Box<CompiledNode>),
    Arith(ArithOp, Box<CompiledNode>, Box<CompiledNode>),
    And(Box<CompiledNode>, Box<CompiledNode>),
    Or(Box<CompiledNode>, Box<CompiledNode>),
    Not(Box<CompiledNode>),
    Contains(Box<CompiledNode>, String),
}

impl CompiledNode {
    fn build(expr: &Expr, schema: &Schema) -> CompiledNode {
        let col = |name: &str| match schema.position(name) {
            Some(i) => CompiledNode::Col(i),
            None => CompiledNode::Missing(name.to_string()),
        };
        match expr {
            Expr::Column(name) => col(name),
            Expr::Const(v) => CompiledNode::Const(v.clone()),
            Expr::Cmp(op, l, r) => CompiledNode::Cmp(
                *op,
                Box::new(Self::build(l, schema)),
                Box::new(Self::build(r, schema)),
            ),
            Expr::Arith(op, l, r) => CompiledNode::Arith(
                *op,
                Box::new(Self::build(l, schema)),
                Box::new(Self::build(r, schema)),
            ),
            Expr::And(l, r) => CompiledNode::And(
                Box::new(Self::build(l, schema)),
                Box::new(Self::build(r, schema)),
            ),
            Expr::Or(l, r) => CompiledNode::Or(
                Box::new(Self::build(l, schema)),
                Box::new(Self::build(r, schema)),
            ),
            Expr::Not(e) => CompiledNode::Not(Box::new(Self::build(e, schema))),
            Expr::Contains(column, needle) => {
                CompiledNode::Contains(Box::new(col(column)), needle.clone())
            }
        }
    }

    /// The value of a leaf node as a borrowed view — the clone-free fast
    /// path for comparisons over `column op constant` shapes, which dominate
    /// selection predicates.
    fn leaf_ref<'v>(&'v self, get: &impl Fn(usize) -> ValueRef<'v>) -> Option<ValueRef<'v>> {
        match self {
            CompiledNode::Col(i) => Some(get(*i)),
            CompiledNode::Const(v) => Some(v.as_ref()),
            _ => None,
        }
    }

    /// Evaluate with `get(i)` supplying a borrowed view of column `i` — the
    /// same semantics (including short-circuiting and error cases) as
    /// [`Expr::eval`], minus the per-row name resolution.  Views come
    /// straight from the typed column buffers, so the leaf-compare fast path
    /// never materialises a [`Value`].
    fn eval_with<'v>(&'v self, get: &impl Fn(usize) -> ValueRef<'v>) -> Result<Value, EvalError> {
        match self {
            CompiledNode::Col(i) => Ok(get(*i).to_value()),
            CompiledNode::Missing(name) => Err(EvalError::MissingColumn(name.clone())),
            CompiledNode::Const(v) => Ok(v.clone()),
            CompiledNode::Cmp(op, l, r) => {
                // Leaf operands compare in place — no value clones at all on
                // the `column op constant` hot shape.
                if let (Some(lv), Some(rv)) = (l.leaf_ref(get), r.leaf_ref(get)) {
                    return match lv.compare(&rv) {
                        Some(ord) => Ok(Value::Bool(op.test(ord))),
                        None => Err(EvalError::TypeMismatch {
                            op: "compare",
                            left: lv.type_name(),
                            right: rv.type_name(),
                        }),
                    };
                }
                let lv = l.eval_with(get)?;
                let rv = r.eval_with(get)?;
                match lv.compare(&rv) {
                    Some(ord) => Ok(Value::Bool(op.test(ord))),
                    None => Err(EvalError::TypeMismatch {
                        op: "compare",
                        left: lv.type_name(),
                        right: rv.type_name(),
                    }),
                }
            }
            CompiledNode::Arith(op, l, r) => {
                let lv = l.eval_with(get)?;
                let rv = r.eval_with(get)?;
                match (lv.as_f64(), rv.as_f64()) {
                    (Some(a), Some(b)) => {
                        let out = match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => a / b,
                        };
                        if matches!((&lv, &rv), (Value::Int(_), Value::Int(_)))
                            && out.fract() == 0.0
                            && !matches!(op, ArithOp::Div)
                        {
                            Ok(Value::Int(out as i64))
                        } else {
                            Ok(Value::Float(out))
                        }
                    }
                    _ => Err(EvalError::TypeMismatch {
                        op: "arith",
                        left: lv.type_name(),
                        right: rv.type_name(),
                    }),
                }
            }
            CompiledNode::And(l, r) => {
                if !expect_bool(l.eval_with(get)?)? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(expect_bool(r.eval_with(get)?)?))
            }
            CompiledNode::Or(l, r) => {
                if expect_bool(l.eval_with(get)?)? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(expect_bool(r.eval_with(get)?)?))
            }
            CompiledNode::Not(e) => Ok(Value::Bool(!expect_bool(e.eval_with(get)?)?)),
            CompiledNode::Contains(column, needle) => {
                let v = column.eval_with(get)?;
                match v {
                    Value::Str(s) => Ok(Value::Bool(s.contains(needle.as_str()))),
                    other => Err(EvalError::TypeMismatch {
                        op: "contains",
                        left: other.type_name(),
                        right: "string",
                    }),
                }
            }
        }
    }

    /// Vectorised evaluation over a whole chunk: fill `truth`/`err` with the
    /// three-valued per-row outcome (`err[r]` set ⇔ per-row evaluation of
    /// this node errors on row `r`; otherwise `truth[r]` is the boolean
    /// value).  Returns `false` when this node's shape is not vectorisable —
    /// the caller then falls back to the per-row walk for the whole
    /// expression, so partial vectorisation never changes semantics.
    ///
    /// Nodes that evaluate to non-boolean scalars (bare columns holding
    /// ints, non-boolean constants) are represented as *boolean operands*:
    /// a non-boolean value is an error in every context this mask feeds
    /// (`matches` at the root, `expect_bool` under a connective), so the
    /// three-valued encoding is exact.
    fn eval_column(&self, chunk: &ColumnChunk, truth: &mut [bool], err: &mut [bool]) -> bool {
        match self {
            CompiledNode::Const(Value::Bool(b)) => {
                truth.fill(*b);
                err.fill(false);
                true
            }
            // A non-boolean constant as a predicate / boolean operand is a
            // type mismatch on every row.
            CompiledNode::Const(_) | CompiledNode::Missing(_) => {
                truth.fill(false);
                err.fill(true);
                true
            }
            CompiledNode::Col(i) => {
                match chunk.col(*i) {
                    Column::Bool { data, validity } => {
                        for (r, &b) in data.iter().enumerate() {
                            truth[r] = b;
                        }
                        mask_invalid(validity.as_ref(), truth, err);
                    }
                    Column::Values(vals) => {
                        for (r, v) in vals.iter().enumerate() {
                            match v {
                                Value::Bool(b) => truth[r] = *b,
                                _ => err[r] = true,
                            }
                        }
                    }
                    // A typed non-boolean column errors every row.
                    _ => {
                        truth.fill(false);
                        err.fill(true);
                    }
                }
                true
            }
            CompiledNode::Cmp(op, l, r) => match (l.as_ref(), r.as_ref()) {
                (_, _)
                    if matches!(l.as_ref(), CompiledNode::Missing(_))
                        || matches!(r.as_ref(), CompiledNode::Missing(_)) =>
                {
                    // A missing column in either operand errors every row.
                    truth.fill(false);
                    err.fill(true);
                    true
                }
                (CompiledNode::Col(i), CompiledNode::Const(c)) => {
                    cmp_col_const(*op, chunk.col(*i), c, truth, err);
                    true
                }
                (CompiledNode::Const(c), CompiledNode::Col(i)) => {
                    // `const op col` ⇔ `col op' const` with the comparison
                    // swapped (comparability is symmetric, so error rows
                    // are identical).
                    cmp_col_const(op.swapped(), chunk.col(*i), c, truth, err);
                    true
                }
                (CompiledNode::Col(a), CompiledNode::Col(b)) => {
                    cmp_col_col(*op, chunk.col(*a), chunk.col(*b), truth, err);
                    true
                }
                (CompiledNode::Const(a), CompiledNode::Const(b)) => {
                    match a.compare(b) {
                        Some(ord) => truth.fill(op.test(ord)),
                        None => {
                            truth.fill(false);
                            err.fill(true);
                        }
                    }
                    true
                }
                _ => false, // nested comparison operands: fall back
            },
            CompiledNode::And(l, r) => {
                if !l.eval_column(chunk, truth, err) {
                    return false;
                }
                let mut rt = vec![false; truth.len()];
                let mut re = vec![false; truth.len()];
                if !r.eval_column(chunk, &mut rt, &mut re) {
                    return false;
                }
                // Short-circuit semantics: the right side's error counts
                // only when the left side was cleanly true.
                for i in 0..truth.len() {
                    let e = err[i] || (truth[i] && re[i]);
                    truth[i] = !e && truth[i] && rt[i];
                    err[i] = e;
                }
                true
            }
            CompiledNode::Or(l, r) => {
                if !l.eval_column(chunk, truth, err) {
                    return false;
                }
                let mut rt = vec![false; truth.len()];
                let mut re = vec![false; truth.len()];
                if !r.eval_column(chunk, &mut rt, &mut re) {
                    return false;
                }
                // A cleanly-true left side short-circuits past any error on
                // the right.
                for i in 0..truth.len() {
                    let e = err[i] || (!truth[i] && re[i]);
                    truth[i] = !e && (truth[i] || rt[i]);
                    err[i] = e;
                }
                true
            }
            CompiledNode::Not(e) => {
                if !e.eval_column(chunk, truth, err) {
                    return false;
                }
                for i in 0..truth.len() {
                    truth[i] = !err[i] && !truth[i];
                }
                true
            }
            CompiledNode::Contains(col, needle) => match col.as_ref() {
                CompiledNode::Col(i) => {
                    match chunk.col(*i) {
                        Column::Dict {
                            codes,
                            dict,
                            validity,
                        } => {
                            // One substring scan per *distinct* value, then a
                            // code-indexed table lookup per row.
                            let verdicts: Vec<bool> =
                                dict.iter().map(|s| s.contains(needle.as_str())).collect();
                            for (r, &code) in codes.iter().enumerate() {
                                truth[r] = verdicts[code as usize];
                            }
                            mask_invalid(validity.as_ref(), truth, err);
                        }
                        Column::Str {
                            arena,
                            offsets,
                            validity,
                        } => {
                            // One arena-wide UTF-8 validation, then
                            // per-row slicing (as in `cmp_col_const`).
                            let arena = std::str::from_utf8(arena).expect("arena holds UTF-8");
                            for r in 0..offsets.len() - 1 {
                                let s = &arena[offsets[r] as usize..offsets[r + 1] as usize];
                                truth[r] = s.contains(needle.as_str());
                            }
                            mask_invalid(validity.as_ref(), truth, err);
                        }
                        Column::Values(vals) => {
                            for (r, v) in vals.iter().enumerate() {
                                match v {
                                    Value::Str(s) => truth[r] = s.contains(needle.as_str()),
                                    _ => err[r] = true,
                                }
                            }
                        }
                        _ => {
                            truth.fill(false);
                            err.fill(true);
                        }
                    }
                    true
                }
                CompiledNode::Missing(_) => {
                    truth.fill(false);
                    err.fill(true);
                    true
                }
                _ => false,
            },
            CompiledNode::Arith(..) => false,
        }
    }
}

fn expect_bool(v: Value) -> Result<bool, EvalError> {
    v.as_bool().ok_or(EvalError::TypeMismatch {
        op: "bool",
        left: "non-bool",
        right: "bool",
    })
}

impl CompiledExpr {
    /// The schema this expression was compiled against.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// True when this compilation is valid for `schema` (pointer identity —
    /// sound because schemas are interned).
    pub fn is_for(&self, schema: &Arc<Schema>) -> bool {
        Arc::ptr_eq(&self.schema, schema)
    }

    /// Evaluate over a row-major value slice (parallel to the compiled
    /// schema's columns).
    pub fn eval(&self, values: &[Value]) -> Result<Value, EvalError> {
        self.root.eval_with(&|i| values[i].as_ref())
    }

    /// Evaluate row `r` of a columnar chunk without materialising the row.
    pub fn eval_row(&self, chunk: &ColumnChunk, r: usize) -> Result<Value, EvalError> {
        debug_assert!(self.is_for(chunk.schema()));
        self.root.eval_with(&|i| chunk.col(i).value_ref(r))
    }

    /// Evaluate a borrowed [`ChunkRow`] view (positional, allocation-free on
    /// the leaf-compare fast path — the survivor-path entry point).
    pub fn eval_view(&self, row: &ChunkRow<'_>) -> Result<Value, EvalError> {
        debug_assert!(self.is_for(row.schema()));
        self.root.eval_with(&|i| row.get(i))
    }

    /// Predicate view over a row-major value slice: `true` only on a clean
    /// boolean true (the best-effort discard policy).
    pub fn matches(&self, values: &[Value]) -> bool {
        matches!(self.eval(values), Ok(Value::Bool(true)))
    }

    /// Predicate view over row `r` of a columnar chunk.
    pub fn matches_row(&self, chunk: &ColumnChunk, r: usize) -> bool {
        matches!(self.eval_row(chunk, r), Ok(Value::Bool(true)))
    }

    /// Predicate view over a borrowed [`ChunkRow`].
    pub fn matches_view(&self, row: &ChunkRow<'_>) -> bool {
        matches!(self.eval_view(row), Ok(Value::Bool(true)))
    }

    /// **Column-at-a-time** predicate evaluation: the per-row outcomes of
    /// [`CompiledExpr::matches_row`] over the whole chunk, computed by
    /// layout-specialised inner loops over each referenced column's typed
    /// buffers (raw `i64`/`f64` slices, dictionary code tables, validity
    /// words) and combined with bitwise mask operations — no per-row
    /// expression-tree walk and no per-element enum dispatch on the
    /// comparison shapes that dominate selection predicates
    /// (`column op constant`, conjunctions/disjunctions thereof,
    /// `Contains`, boolean columns).
    ///
    /// Shapes the vectoriser does not cover (arithmetic, nested comparisons)
    /// fall back to the row-at-a-time walk, so the returned mask is always
    /// exactly what per-row evaluation would produce — including the
    /// best-effort discard semantics: a row whose evaluation errors (missing
    /// column, type mismatch, non-boolean operand) does not match.  This is
    /// the selection mask [`Selection`](crate::operators::Selection) filters
    /// chunks with, and the kernel layer `pier-mqo`'s predicate index fans
    /// out across member queries.
    pub fn eval_column(&self, chunk: &ColumnChunk) -> Vec<bool> {
        debug_assert!(self.is_for(chunk.schema()));
        let rows = chunk.rows();
        let mut truth = vec![false; rows];
        let mut err = vec![false; rows];
        if self.root.eval_column(chunk, &mut truth, &mut err) {
            // A clean boolean true is the only "match": error rows are
            // masked out bitwise.
            for (t, e) in truth.iter_mut().zip(&err) {
                *t = *t && !*e;
            }
            truth
        } else {
            (0..rows).map(|r| self.matches_row(chunk, r)).collect()
        }
    }
}

/// Overwrite the outcome of every null row with "error" (null compares to
/// nothing — the discard-on-mismatch policy).  No-op when the column has no
/// validity bitmap.
fn mask_invalid(validity: Option<&Bitmap>, truth: &mut [bool], err: &mut [bool]) {
    if let Some(v) = validity {
        for r in 0..truth.len() {
            if !v.get(r) {
                truth[r] = false;
                err[r] = true;
            }
        }
    }
}

/// Compare a typed column against one constant with a kernel specialised to
/// the column's *layout* (the innermost kernel of
/// [`CompiledExpr::eval_column`], also reused by `pier-mqo`'s predicate
/// index so the two never drift).  Native `i64`/`f64` buffers compare in a
/// branch-free loop over raw slices; dictionary columns compare each
/// *distinct* value once and broadcast through the code table; the fallback
/// layout keeps the per-value loop.  `truth[r]`/`err[r]` receive the
/// three-valued outcome exactly as per-row [`Value::compare`] would decide
/// it: `err` rows are incomparable (type mismatch / NaN / null), matching
/// the discard-on-mismatch policy.  Both slices must be parallel to `col`
/// and are overwritten per row.
pub fn cmp_col_const(
    op: CmpOp,
    col: &Column,
    constant: &Value,
    truth: &mut [bool],
    err: &mut [bool],
) {
    match (col, constant) {
        (Column::Int { data, validity }, Value::Int(k)) => {
            for (r, x) in data.iter().enumerate() {
                truth[r] = op.test(x.cmp(k));
                err[r] = false;
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (Column::Int { data, validity }, Value::Float(k)) => {
            for (r, x) in data.iter().enumerate() {
                match (*x as f64).partial_cmp(k) {
                    Some(ord) => {
                        truth[r] = op.test(ord);
                        err[r] = false;
                    }
                    None => {
                        truth[r] = false;
                        err[r] = true;
                    }
                }
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (Column::Float { data, validity }, k) if matches!(k, Value::Int(_) | Value::Float(_)) => {
            let k = k.as_f64().expect("numeric constant");
            for (r, f) in data.iter().enumerate() {
                match f.partial_cmp(&k) {
                    Some(ord) => {
                        truth[r] = op.test(ord);
                        err[r] = false;
                    }
                    None => {
                        truth[r] = false;
                        err[r] = true;
                    }
                }
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (Column::Bool { data, validity }, Value::Bool(k)) => {
            for (r, b) in data.iter().enumerate() {
                truth[r] = op.test(b.cmp(k));
                err[r] = false;
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (
            Column::Dict {
                codes,
                dict,
                validity,
            },
            Value::Str(k),
        ) => {
            // Compare each distinct dictionary entry once, then broadcast
            // the verdicts through the code table.
            let verdicts: Vec<bool> = dict
                .iter()
                .map(|s| op.test(s.as_ref().cmp(k.as_ref())))
                .collect();
            for (r, &code) in codes.iter().enumerate() {
                truth[r] = verdicts[code as usize];
                err[r] = false;
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (
            Column::Str {
                arena,
                offsets,
                validity,
            },
            Value::Str(k),
        ) => {
            // Validate the arena once, then slice per row — a per-row
            // `from_utf8` would re-walk every string on every scan.
            let arena = std::str::from_utf8(arena).expect("arena holds UTF-8");
            let k = k.as_ref();
            for r in 0..offsets.len() - 1 {
                let v = &arena[offsets[r] as usize..offsets[r + 1] as usize];
                truth[r] = op.test(v.cmp(k));
                err[r] = false;
            }
            mask_invalid(validity.as_ref(), truth, err);
        }
        (Column::Values(vals), constant) => {
            cmp_values_const(op, vals, constant, truth, err);
        }
        // Typed layout vs a constant of an incompatible type: every row is
        // a mismatch (nulls included).
        _ => {
            truth.fill(false);
            err.fill(true);
        }
    }
}

/// The fallback-layout arm of [`cmp_col_const`]: a per-value loop
/// specialised to the constant's runtime type.
fn cmp_values_const(
    op: CmpOp,
    col: &[Value],
    constant: &Value,
    truth: &mut [bool],
    err: &mut [bool],
) {
    match constant {
        Value::Int(k) => {
            for (r, v) in col.iter().enumerate() {
                match v {
                    Value::Int(x) => truth[r] = op.test(x.cmp(k)),
                    Value::Float(f) => match f.partial_cmp(&(*k as f64)) {
                        Some(ord) => truth[r] = op.test(ord),
                        None => err[r] = true,
                    },
                    _ => err[r] = true,
                }
            }
        }
        Value::Float(k) => {
            for (r, v) in col.iter().enumerate() {
                let ord = match v {
                    Value::Int(x) => (*x as f64).partial_cmp(k),
                    Value::Float(f) => f.partial_cmp(k),
                    _ => {
                        err[r] = true;
                        continue;
                    }
                };
                match ord {
                    Some(ord) => truth[r] = op.test(ord),
                    None => err[r] = true,
                }
            }
        }
        Value::Str(k) => {
            for (r, v) in col.iter().enumerate() {
                match v {
                    Value::Str(s) => truth[r] = op.test(s.as_ref().cmp(k.as_ref())),
                    _ => err[r] = true,
                }
            }
        }
        other => {
            for (r, v) in col.iter().enumerate() {
                match v.compare(other) {
                    Some(ord) => truth[r] = op.test(ord),
                    None => err[r] = true,
                }
            }
        }
    }
}

/// Column-vs-column comparison kernel: native loops when both sides share a
/// typed all-valid layout, the borrowed-view walk otherwise.
fn cmp_col_col(op: CmpOp, ca: &Column, cb: &Column, truth: &mut [bool], err: &mut [bool]) {
    match (ca, cb) {
        (
            Column::Int {
                data: a,
                validity: None,
            },
            Column::Int {
                data: b,
                validity: None,
            },
        ) => {
            for r in 0..a.len() {
                truth[r] = op.test(a[r].cmp(&b[r]));
            }
        }
        (
            Column::Float {
                data: a,
                validity: None,
            },
            Column::Float {
                data: b,
                validity: None,
            },
        ) => {
            for r in 0..a.len() {
                match a[r].partial_cmp(&b[r]) {
                    Some(ord) => truth[r] = op.test(ord),
                    None => err[r] = true,
                }
            }
        }
        _ => {
            for r in 0..ca.len() {
                match ca.value_ref(r).compare(&cb.value_ref(r)) {
                    Some(ord) => truth[r] = op.test(ord),
                    None => err[r] = true,
                }
            }
        }
    }
}

/// A predicate plus its per-schema compilation cache: the expression is
/// compiled against each schema it meets exactly once (single-entry cache
/// keyed by schema pointer, like `ColumnResolver`) and evaluated by index
/// thereafter.  This is what [`Selection`](crate::operators::Selection) and
/// the eddy filters hold instead of a raw [`Expr`].
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    expr: Expr,
    cache: Option<CompiledExpr>,
}

impl CompiledPredicate {
    /// Wrap a predicate expression.
    pub fn new(expr: Expr) -> Self {
        CompiledPredicate { expr, cache: None }
    }

    /// The wrapped expression.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The compilation for `schema`, compiling on first sight.
    pub fn for_schema(&mut self, schema: &Arc<Schema>) -> &CompiledExpr {
        if !self.cache.as_ref().is_some_and(|c| c.is_for(schema)) {
            self.cache = Some(self.expr.compile(schema));
        }
        self.cache.as_ref().expect("cache populated above")
    }

    /// Predicate test against one tuple (compiles on schema change only).
    pub fn matches_tuple(&mut self, tuple: &Tuple) -> bool {
        self.for_schema(tuple.schema()).matches(tuple.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup() -> Tuple {
        Tuple::new(
            "t",
            vec![
                ("a", Value::Int(5)),
                ("b", Value::Float(2.5)),
                ("name", Value::Str("alpha beta".into())),
                ("ok", Value::Bool(true)),
            ],
        )
    }

    #[test]
    fn comparisons() {
        assert!(Expr::eq("a", 5i64).matches(&tup()));
        assert!(!Expr::eq("a", 6i64).matches(&tup()));
        assert!(Expr::cmp(CmpOp::Gt, Expr::col("a"), Expr::lit(2.0)).matches(&tup()));
        assert!(Expr::cmp(CmpOp::Le, Expr::col("b"), Expr::col("a")).matches(&tup()));
        assert!(Expr::cmp(CmpOp::Ne, Expr::col("a"), Expr::lit(1i64)).matches(&tup()));
    }

    #[test]
    fn boolean_connectives_and_shortcut() {
        let e = Expr::And(
            Box::new(Expr::eq("a", 5i64)),
            Box::new(Expr::cmp(CmpOp::Lt, Expr::col("b"), Expr::lit(3.0))),
        );
        assert!(e.matches(&tup()));
        // Short-circuit: the right side of AND is not evaluated (and thus
        // cannot cause a discard) when the left side is already false.
        let short = Expr::And(
            Box::new(Expr::eq("a", 99i64)),
            Box::new(Expr::col("missing")),
        );
        assert_eq!(short.eval(&tup()), Ok(Value::Bool(false)));
    }

    #[test]
    fn or_and_not() {
        let e = Expr::Or(Box::new(Expr::eq("a", 99i64)), Box::new(Expr::col("ok")));
        assert!(e.matches(&tup()));
        assert!(Expr::Not(Box::new(Expr::eq("a", 99i64))).matches(&tup()));
    }

    #[test]
    fn arithmetic() {
        let e = Expr::cmp(
            CmpOp::Eq,
            Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::col("a")),
                Box::new(Expr::lit(1i64)),
            ),
            Expr::lit(6i64),
        );
        assert!(e.matches(&tup()));
        let div = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col("a")),
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(div.eval(&tup()), Ok(Value::Float(2.5)));
    }

    #[test]
    fn best_effort_discard_on_missing_or_mismatched() {
        // Missing column: predicate simply does not match.
        assert!(!Expr::eq("nope", 1i64).matches(&tup()));
        assert!(matches!(
            Expr::col("nope").eval(&tup()),
            Err(EvalError::MissingColumn(_))
        ));
        // Type mismatch: string vs int.
        let e = Expr::cmp(CmpOp::Eq, Expr::col("name"), Expr::lit(5i64));
        assert!(!e.matches(&tup()));
        assert!(matches!(
            e.eval(&tup()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn contains_for_keyword_search() {
        assert!(Expr::Contains("name".into(), "beta".into()).matches(&tup()));
        assert!(!Expr::Contains("name".into(), "gamma".into()).matches(&tup()));
        assert!(!Expr::Contains("a".into(), "5".into()).matches(&tup()));
    }

    #[test]
    fn equality_constant_extraction_for_dissemination() {
        let pred = Expr::all(vec![
            Expr::cmp(CmpOp::Gt, Expr::col("b"), Expr::lit(0i64)),
            Expr::eq("name", "rock"),
        ]);
        assert_eq!(
            pred.equality_constant("name"),
            Some(Value::Str("rock".into()))
        );
        assert_eq!(pred.equality_constant("b"), None);
        assert_eq!(
            Expr::eq("x", 3i64).equality_constant("x"),
            Some(Value::Int(3))
        );
    }

    #[test]
    fn all_of_empty_list_is_true() {
        assert!(Expr::all(vec![]).matches(&tup()));
    }

    #[test]
    fn compiled_eval_agrees_with_interpreted_eval() {
        let t = tup();
        let exprs = vec![
            Expr::eq("a", 5i64),
            Expr::eq("a", 6i64),
            Expr::cmp(CmpOp::Gt, Expr::col("a"), Expr::lit(2.0)),
            Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::col("a")),
                Box::new(Expr::lit(1i64)),
            ),
            Expr::Arith(
                ArithOp::Div,
                Box::new(Expr::col("a")),
                Box::new(Expr::lit(2i64)),
            ),
            Expr::And(
                Box::new(Expr::eq("a", 99i64)),
                Box::new(Expr::col("missing")),
            ),
            Expr::Or(Box::new(Expr::eq("a", 99i64)), Box::new(Expr::col("ok"))),
            Expr::Not(Box::new(Expr::col("ok"))),
            Expr::Contains("name".into(), "beta".into()),
            Expr::Contains("a".into(), "5".into()),
            Expr::col("nope"),
            Expr::cmp(CmpOp::Eq, Expr::col("name"), Expr::lit(5i64)),
        ];
        for e in exprs {
            let compiled = e.compile(t.schema());
            assert_eq!(
                compiled.eval(t.values()),
                e.eval(&t),
                "compiled and interpreted eval must agree for {e:?}"
            );
        }
    }

    #[test]
    fn compiled_predicate_caches_per_schema_and_rechecks_on_change() {
        let mut pred = CompiledPredicate::new(Expr::eq("a", 5i64));
        assert!(pred.matches_tuple(&tup()));
        assert!(pred.matches_tuple(&tup()));
        // A schema without `a` compiles to a missing-column node: no match.
        let other = Tuple::new("other", vec![("z", Value::Int(5))]);
        assert!(!pred.matches_tuple(&other));
        assert!(pred.matches_tuple(&tup()));
        assert_eq!(pred.expr(), &Expr::eq("a", 5i64));
    }

    #[test]
    fn eval_column_agrees_with_per_row_evaluation() {
        use crate::tuple::TupleBatch;
        // A deliberately messy chunk: ints, floats (incl. NaN), strings,
        // bools and NULLs interleaved in every column the predicates read.
        let rows: Vec<Tuple> = (0..64)
            .map(|i| {
                let a = match i % 5 {
                    0 => Value::Int(i),
                    1 => Value::Float(i as f64 / 2.0),
                    2 => Value::Str(format!("s{i}").into()),
                    3 => Value::Null,
                    _ => Value::Float(f64::NAN),
                };
                Tuple::new(
                    "t",
                    vec![
                        ("a", a),
                        ("b", Value::Int(i % 7)),
                        ("name", Value::Str(format!("row {i} beta").into())),
                        (
                            "ok",
                            if i % 3 == 0 {
                                Value::Bool(true)
                            } else {
                                Value::Int(1)
                            },
                        ),
                    ],
                )
            })
            .collect();
        let exprs = vec![
            Expr::eq("a", 10i64),
            Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(3.0)),
            Expr::cmp(CmpOp::Lt, Expr::lit(4i64), Expr::col("b")),
            Expr::cmp(CmpOp::Ne, Expr::col("a"), Expr::col("b")),
            Expr::cmp(CmpOp::Eq, Expr::lit(1i64), Expr::lit(1.0)),
            Expr::eq("name", "row 7 beta"),
            Expr::And(
                Box::new(Expr::cmp(CmpOp::Ge, Expr::col("b"), Expr::lit(2i64))),
                Box::new(Expr::col("ok")),
            ),
            Expr::Or(
                Box::new(Expr::col("missing")),
                Box::new(Expr::eq("b", 3i64)),
            ),
            Expr::Or(
                Box::new(Expr::eq("b", 3i64)),
                Box::new(Expr::col("missing")),
            ),
            Expr::Not(Box::new(Expr::eq("b", 1i64))),
            Expr::Contains("name".into(), "7 be".into()),
            Expr::Contains("a".into(), "s1".into()),
            Expr::Contains("missing".into(), "x".into()),
            Expr::col("ok"),
            Expr::col("missing"),
            Expr::Const(Value::Int(3)),
            Expr::eq("missing", 1i64),
            // Arithmetic forces the row-at-a-time fallback path.
            Expr::cmp(
                CmpOp::Eq,
                Expr::Arith(
                    ArithOp::Add,
                    Box::new(Expr::col("b")),
                    Box::new(Expr::lit(1i64)),
                ),
                Expr::lit(3i64),
            ),
        ];
        let batch = TupleBatch::new(rows.clone());
        for e in exprs {
            for chunk in batch.chunks() {
                let compiled = e.compile(chunk.schema());
                let mask = compiled.eval_column(chunk);
                let per_row: Vec<bool> = (0..chunk.rows())
                    .map(|r| compiled.matches_row(chunk, r))
                    .collect();
                assert_eq!(mask, per_row, "column and row evaluation diverge for {e:?}");
            }
        }
    }

    #[test]
    fn compiled_eval_scans_columnar_chunks() {
        use crate::tuple::TupleBatch;
        let rows: Vec<Tuple> = (0..20)
            .map(|i| {
                Tuple::new(
                    "t",
                    vec![("a", Value::Int(i)), ("b", Value::Float(i as f64 / 2.0))],
                )
            })
            .collect();
        let pred = Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(10i64));
        let batch = TupleBatch::new(rows.clone());
        let chunk = &batch.chunks()[0];
        let compiled = pred.compile(chunk.schema());
        let columnar: Vec<bool> = (0..chunk.rows())
            .map(|r| compiled.matches_row(chunk, r))
            .collect();
        let row_major: Vec<bool> = rows.iter().map(|t| pred.matches(t)).collect();
        assert_eq!(columnar, row_major);
        assert_eq!(columnar.iter().filter(|b| **b).count(), 10);
    }
}
