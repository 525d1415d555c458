//! The production table: a [`LanguageDef`] compiled once, and the one
//! encoder and the one decoder every object language runs through.
//!
//! A [`Table`] holds the definition's signature and, per production, its
//! constant, result sort and argument slots, indexed by the constant's
//! [`Sym`]. [`Table::encode`] and [`Table::decode`] walk an AST or a
//! term with an explicit stack, so any nesting depth fits the host stack,
//! and they do every check once for every language: sorts, arities,
//! integer positions, λs at binding positions (an *exotic* term has
//! none), unbound variables and binder freshening, through one
//! [`Scope`].
//!
//! A language supplies only two small functions. Its **view** says what
//! one AST node is — a variable, or a production with its [`Part`]s in
//! slot order — and its **builder** makes an AST node from a [`Head`]
//! and the decoded [`Pieces`] of its slots. A scope's binder names come
//! as [`Part::Name`]s (and [`Pieces::name`]s) just before its body.
//!
//! A table knows only the constants its grammar lists, except at a sort
//! made [`Table::open`]: there an unlisted constant applied to arguments
//! of one fixed sort reads as [`Head::Open`] (first-order logic's
//! predicate and function symbols, which come from a vocabulary).

use crate::bridge::BridgeError;
use crate::def::{Arg, DefError, LanguageDef};
use hoas_core::scope::Scope;
use hoas_core::sig::Signature;
use hoas_core::store::FxBuild;
use hoas_core::{Sym, Term, Ty, TyScheme};
use std::borrow::Cow;
use std::collections::HashMap;

/// One argument slot of a production.
#[derive(Clone, Debug)]
enum Slot {
    Sort(u32),
    Int,
    Scope { binders: Box<[u32]>, body: u32 },
}

#[derive(Clone, Debug)]
struct Prod {
    name: Sym,
    sort: u32,
    slots: Box<[Slot]>,
}

/// A [`LanguageDef`] compiled for encoding and decoding.
#[derive(Clone, Debug)]
pub struct Table {
    sig: Signature,
    sorts: Box<[Sym]>,
    prods: Box<[Prod]>,
    /// Production ids by constant name.
    dispatch: HashMap<Sym, u32, FxBuild>,
    /// Per sort, the sort of an unlisted constant's arguments, if the
    /// sort is open.
    open: Box<[Option<u32>]>,
}

/// What an AST node is, as a view presents it to [`Table::encode`] or
/// [`Table::decode`] presents it to a builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Head<'a> {
    /// A variable occurrence.
    Var(&'a str),
    /// The production with this id (its index in the grammar).
    Prod(u32),
    /// A constant the grammar does not list, at an open sort.
    Open(&'a str),
}

/// One slot's worth of a node, as a view presents it: a subterm, an
/// integer literal, or a binder name of the scope whose body follows.
#[derive(Clone, Copy, Debug)]
pub enum Part<'a, N> {
    /// A subterm (a plain argument, or a scope's body).
    Node(N),
    /// An integer literal.
    Int(i64),
    /// A binder of the next scope.
    Name(&'a str),
}

/// One decoded slot's worth of a node.
enum Piece<T> {
    Node(T),
    Int(i64),
    Name(String),
}

/// The decoded pieces of one node, taken in slot order: each subterm,
/// integer literal and binder name (a scope's binders come before its
/// body). The decoder has checked them against the production, so a
/// builder takes them in the production's order without checking.
pub struct Pieces<'p, T> {
    pieces: std::vec::Drain<'p, Piece<T>>,
}

impl<'p, T> Pieces<'p, T> {
    /// The pieces on `stack` from `start` on.
    fn of(stack: &'p mut Vec<Piece<T>>, start: usize) -> Self {
        Pieces {
            pieces: stack.drain(start..),
        }
    }

    /// The next subterm.
    ///
    /// # Panics
    ///
    /// If the next piece is not a subterm: the builder and its grammar
    /// disagree.
    pub fn node(&mut self) -> T {
        match self.pieces.next() {
            Some(Piece::Node(t)) => t,
            _ => panic!("the builder takes its pieces in its grammar's order"),
        }
    }

    /// The next integer literal.
    ///
    /// # Panics
    ///
    /// As for [`Pieces::node`].
    pub fn int(&mut self) -> i64 {
        match self.pieces.next() {
            Some(Piece::Int(n)) => n,
            _ => panic!("the builder takes its pieces in its grammar's order"),
        }
    }

    /// The next binder name.
    ///
    /// # Panics
    ///
    /// As for [`Pieces::node`].
    pub fn name(&mut self) -> String {
        match self.pieces.next() {
            Some(Piece::Name(x)) => x,
            _ => panic!("the builder takes its pieces in its grammar's order"),
        }
    }

    /// The remaining pieces, all subterms (an open constant's arguments).
    pub fn nodes(mut self) -> impl Iterator<Item = T> + 'p {
        (0..self.pieces.len()).map(move |_| self.node())
    }
}

/// A step of [`Table::encode`].
enum Task<'a, N> {
    Visit(N, u32),
    Lit(i64),
    Bind(&'a str, u32),
    Unbind,
    Apply(Sym, usize),
}

/// A step of [`Table::decode`].
enum Step<'s, 't> {
    /// Decode a term at a sort.
    Visit(&'t Term, u32),
    /// Decode an integer literal.
    Int(&'t Term),
    /// Bind a scope's binders (the term's λs, of these sorts), then
    /// decode its body at a sort.
    Scope(&'t Term, &'s [u32], u32),
    /// Unbind a scope's binders.
    Unbind(usize),
    /// Build a node of a sort from the pieces from an index on.
    Build(Head<'t>, u32, usize),
}

impl Table {
    /// Validates and compiles `def`: its signature (one base type per
    /// sort, one constant per production) and its productions indexed
    /// by their constants. No sort is open.
    ///
    /// # Errors
    ///
    /// See [`DefError`].
    pub fn new(def: &LanguageDef) -> Result<Table, DefError> {
        if def.sorts().is_empty() {
            return Err(DefError::Empty);
        }
        let mut sig = Signature::new();
        for s in def.sorts() {
            sig.declare_type(s.as_str())
                .map_err(|_| DefError::DuplicateSort(s.clone()))?;
        }
        let sorts: Box<[Sym]> = sig.types().cloned().collect();
        let mut prods = Vec::with_capacity(def.productions().len());
        for p in def.productions() {
            let id = |s: &String| match sorts.iter().position(|x| x == s.as_str()) {
                Some(i) => Ok(i as u32),
                None => Err(DefError::UnknownSort {
                    production: p.name.clone(),
                    sort: s.clone(),
                }),
            };
            let slot = |a: &Arg| match a {
                Arg::Sort(s) => id(s).map(Slot::Sort),
                Arg::Int => Ok(Slot::Int),
                Arg::Binding { binders, body } => Ok(Slot::Scope {
                    binders: binders.iter().map(id).collect::<Result<_, _>>()?,
                    body: id(body)?,
                }),
            };
            let (sort, slots) = (
                id(&p.sort)?,
                p.args.iter().map(slot).collect::<Result<_, _>>()?,
            );
            let ty = Ty::arrows(p.args.iter().map(arg_ty), Ty::base(p.sort.as_str()));
            let clash = def.sorts().contains(&p.name);
            if clash
                || sig
                    .declare_const(p.name.as_str(), TyScheme::mono(ty))
                    .is_err()
            {
                return Err(DefError::DuplicateProduction(p.name.clone()));
            }
            let name = sig.const_sym(&p.name).expect("just declared").clone();
            prods.push(Prod { name, sort, slots });
        }
        let dispatch = prods.iter().map(|p| p.name.clone()).zip(0..).collect();
        let open = vec![None; sorts.len()].into();
        Ok(Table {
            sig,
            sorts,
            prods: prods.into(),
            dispatch,
            open,
        })
    }

    /// Opens `sort`: a constant the grammar does not list, applied to
    /// arguments of sort `args`, is a term of `sort`, seen by views and
    /// builders as [`Head::Open`].
    ///
    /// # Panics
    ///
    /// If either sort is not declared.
    #[must_use]
    pub fn open(mut self, sort: &str, args: &str) -> Table {
        let args = self.sort_id(args).expect("the argument sort is declared");
        let sort = self.sort_id(sort).expect("the open sort is declared");
        self.open[sort as usize] = Some(args);
        self
    }

    /// The compiled signature.
    pub fn signature(&self) -> &Signature {
        &self.sig
    }

    /// The id of the production named `name`.
    pub fn production(&self, name: &str) -> Option<u32> {
        self.dispatch.get(name).copied()
    }

    fn sort_id(&self, sort: &str) -> Result<u32, BridgeError> {
        match self.sorts.iter().position(|s| s == sort) {
            Some(i) => Ok(i as u32),
            None => Err(BridgeError::NotCanonical(format!("no sort `{sort}`"))),
        }
    }

    /// Encodes `root`, an AST node of sort `sort`, whose free variables
    /// are bound by `scope` (outermost first, all of sort `sort`). `view`
    /// says what a node is, pushing its parts in slot order onto the
    /// (empty) vector it is given.
    ///
    /// # Errors
    ///
    /// [`BridgeError::Unbound`] for a variable with no binder of its
    /// sort in scope (a binder of the same name at another sort does not
    /// hide an outer one at the right sort), [`BridgeError::BadOperator`]
    /// for a node whose parts do not fit its production's slots or sort,
    /// and whatever `view` reports.
    pub fn encode<'a, N: Copy>(
        &self,
        sort: &str,
        root: N,
        scope: &[&'a str],
        mut view: impl FnMut(N, &mut Vec<Part<'a, N>>) -> Result<Head<'a>, BridgeError>,
    ) -> Result<Term, BridgeError> {
        let root_sort = self.sort_id(sort)?;
        let mut names: Scope<&'a str> = Scope::new();
        scope.iter().for_each(|x| names.push(x));
        let mut sorts = vec![root_sort; scope.len()];
        let (mut tasks, mut out, mut parts) = (vec![Task::Visit(root, root_sort)], vec![], vec![]);
        while let Some(task) = tasks.pop() {
            let (node, sort) = match task {
                Task::Visit(node, sort) => (node, sort),
                Task::Lit(n) => {
                    out.push(Term::Int(n));
                    continue;
                }
                Task::Bind(x, s) => {
                    names.push(x);
                    sorts.push(s);
                    continue;
                }
                Task::Unbind => {
                    sorts.pop();
                    let body = out.pop().expect("a scope's body");
                    out.push(Term::lam(names.pop().expect("a bound name"), body));
                    continue;
                }
                Task::Apply(c, n) => {
                    let t = out.drain(out.len() - n..).fold(Term::Const(c), Term::app);
                    out.push(t);
                    continue;
                }
            };
            parts.clear();
            let head = view(node, &mut parts)?;
            let args = parts.iter().filter(|p| !matches!(p, Part::Name(_))).count();
            let open_slots;
            let (c, slots) = match head {
                Head::Var(x) => {
                    // The innermost binder of `x` at this sort: binders of
                    // `x` at other sorts do not hide it.
                    let mut at = names.index_of(x);
                    while let Some(i) = at.filter(|&i| sorts[sorts.len() - 1 - i as usize] != sort)
                    {
                        at = names.shadowed(i);
                    }
                    let Some(i) = at else {
                        let expected = self.sorts[sort as usize].to_string();
                        return Err(BridgeError::Unbound {
                            name: x.into(),
                            expected,
                        });
                    };
                    out.push(Term::Var(i));
                    continue;
                }
                Head::Prod(id) => {
                    let p = &self.prods[id as usize];
                    (
                        p.name.clone(),
                        Some(&p.slots[..]).filter(|_| p.sort == sort),
                    )
                }
                Head::Open(c) => {
                    open_slots = self.open[sort as usize].map(|a| vec![Slot::Sort(a); args]);
                    (Sym::new(c), open_slots.as_deref())
                }
            };
            let bad = |reason: String| BridgeError::BadOperator {
                op: c.to_string(),
                reason,
            };
            let Some(slots) = slots else {
                return Err(bad(format!(
                    "not a constructor of sort `{}`",
                    self.sorts[sort as usize]
                )));
            };
            if args != slots.len() {
                return Err(bad(format!(
                    "expects {} arguments, got {args}",
                    slots.len()
                )));
            }
            tasks.push(Task::Apply(c.clone(), args));
            let (mark, mut i) = (tasks.len(), 0);
            for slot in slots {
                let binders: &[u32] = match slot {
                    Slot::Scope { binders, .. } => binders,
                    _ => &[],
                };
                for &b in binders {
                    let Some(&Part::Name(x)) = parts.get(i) else {
                        return Err(bad(format!("a scope binds {} variables", binders.len())));
                    };
                    tasks.push(Task::Bind(x, b));
                    i += 1;
                }
                tasks.push(match (slot, parts[i]) {
                    (Slot::Int, Part::Int(n)) => Task::Lit(n),
                    (Slot::Sort(s), Part::Node(n)) => Task::Visit(n, *s),
                    (Slot::Scope { body, .. }, Part::Node(n)) => Task::Visit(n, *body),
                    (Slot::Int, _) => return Err(bad("expected an integer literal".into())),
                    (_, Part::Name(_)) => return Err(bad("binders where none are bound".into())),
                    (_, Part::Int(_)) => {
                        return Err(bad("an integer at a subterm position".into()))
                    }
                });
                tasks.extend(binders.iter().map(|_| Task::Unbind));
                i += 1;
            }
            if i != parts.len() {
                return Err(bad("binders after the last argument".into()));
            }
            tasks[mark..].reverse();
        }
        Ok(out.pop().expect("the root's encoding"))
    }

    /// Decodes `t`, a canonical term of sort `sort` whose free indices
    /// refer to `scope` (outermost first, all of sort `sort`). `build`
    /// makes an AST node of a sort from its head and pieces; binder names
    /// are the λs' hints, freshened against the names in scope.
    ///
    /// # Errors
    ///
    /// [`BridgeError::NotCanonical`] for a term that is not a canonical
    /// encoding: an unknown constant, a constant or variable at the wrong
    /// sort or with the wrong number of arguments, a non-integer at an
    /// integer slot, a non-λ at a binding slot (an exotic term), a
    /// dangling index, or any other head.
    pub fn decode<'t, T>(
        &self,
        sort: &str,
        t: &'t Term,
        scope: &[&'t str],
        mut build: impl FnMut(u32, Head<'_>, Pieces<'_, T>) -> T,
    ) -> Result<T, BridgeError> {
        let root_sort = self.sort_id(sort)?;
        let mut names: Scope<Cow<'t, str>> = Scope::new();
        scope.iter().for_each(|x| names.push(Cow::Borrowed(x)));
        let mut sorts = vec![root_sort; scope.len()];
        let bad = |msg: String| Err(BridgeError::NotCanonical(msg));
        // The decoded pieces of the nodes under way, each node's in slot
        // order from where its `Build` step says.
        let (mut pieces, mut steps) = (stack(), stack());
        steps.push(Step::Visit(t, root_sort));
        while let Some(step) = steps.pop() {
            let (t, sort) = match step {
                Step::Visit(t, sort) => (t, sort),
                Step::Int(Term::Int(n)) => {
                    pieces.push(Piece::Int(*n));
                    continue;
                }
                Step::Int(other) => return bad(format!("{} at an integer slot", describe(other))),
                Step::Scope(mut t, binders, body) => {
                    for &b in binders {
                        let Term::Lam(hint, inner) = t else {
                            return bad(format!("{} at a binding slot (exotic)", describe(t)));
                        };
                        let x = names.fresh(&Cow::Borrowed(hint.as_str()));
                        pieces.push(Piece::Name(x.to_string()));
                        names.push(x);
                        sorts.push(b);
                        t = inner;
                    }
                    steps.push(Step::Unbind(binders.len()));
                    (t, body)
                }
                Step::Unbind(n) => {
                    for _ in 0..n {
                        names.pop();
                        sorts.pop();
                    }
                    continue;
                }
                Step::Build(head, sort, start) => {
                    let node = build(sort, head, Pieces::of(&mut pieces, start));
                    pieces.push(Piece::Node(node));
                    continue;
                }
            };
            let (head, nargs) = spine_head(t);
            let at = &self.sorts[sort as usize];
            let (head, slots) = match head {
                Term::Var(i) if nargs == 0 => {
                    let Some(x) = names.name(*i) else {
                        return bad(format!("dangling index {i}"));
                    };
                    let bound = sorts[sorts.len() - 1 - *i as usize];
                    if bound != sort {
                        let bound = &self.sorts[bound as usize];
                        return bad(format!("`{x}` of sort `{bound}` used at sort `{at}`"));
                    }
                    let end = pieces.len();
                    let node = build(sort, Head::Var(x), Pieces::of(&mut pieces, end));
                    pieces.push(Piece::Node(node));
                    continue;
                }
                Term::Const(c) => match (self.production(c.as_str()), self.open[sort as usize]) {
                    (Some(id), _) => match &self.prods[id as usize] {
                        p if p.sort == sort && p.slots.len() == nargs => {
                            (Head::Prod(id), Ok(&p.slots))
                        }
                        p => {
                            let (s, k) = (&self.sorts[p.sort as usize], p.slots.len());
                            return bad(format!(
                                "`{c}` of sort `{s}` and {k} arguments \
                                 applied to {nargs} at sort `{at}`"
                            ));
                        }
                    },
                    (None, Some(args)) => (Head::Open(c.as_str()), Err(args)),
                    (None, None) => return bad(format!("`{c}` is not a constructor of `{at}`")),
                },
                other => {
                    return bad(format!(
                        "{} is not a constructor of `{at}`",
                        describe(other)
                    ))
                }
            };
            steps.push(Step::Build(head, sort, pieces.len()));
            // The arguments' steps, the last pushed first so that the
            // first runs first.
            let mut spine = t;
            for k in (0..nargs).rev() {
                let Term::App(rest, arg) = spine else {
                    unreachable!("a spine of {nargs} applications")
                };
                steps.push(match slots.map(|slots| &slots[k]) {
                    Err(args) => Step::Visit(arg, args),
                    Ok(Slot::Sort(s)) => Step::Visit(arg, *s),
                    Ok(Slot::Int) => Step::Int(arg),
                    Ok(Slot::Scope { binders, body }) => Step::Scope(arg, binders, *body),
                });
                spine = rest;
            }
        }
        match pieces.pop() {
            Some(Piece::Node(node)) => Ok(node),
            _ => unreachable!("the root decodes to a node"),
        }
    }
}

/// An empty stack whose first allocation holds up to 1 KiB: enough for
/// the walk of a typical term, in a size that the allocator serves from
/// its per-thread cache. (Grown from empty, the stacks were reallocated
/// several times per term, which made decoding small terms up to 1.5×
/// slower.)
fn stack<E>() -> Vec<E> {
    Vec::with_capacity(1024 / std::mem::size_of::<E>().max(1))
}

/// The metalanguage type of an argument slot: a scope binding `b₁ … bₙ`
/// in `body` is `b₁ -> … -> bₙ -> body`.
fn arg_ty(arg: &Arg) -> Ty {
    match arg {
        Arg::Sort(s) => Ty::base(s.as_str()),
        Arg::Int => Ty::Int,
        Arg::Binding { binders, body } => Ty::arrows(
            binders.iter().map(|b| Ty::base(b.as_str())),
            Ty::base(body.as_str()),
        ),
    }
}

/// The head of an application spine, and the number of its arguments.
fn spine_head(mut t: &Term) -> (&Term, usize) {
    let mut nargs = 0;
    while let Term::App(f, _) = t {
        t = f;
        nargs += 1;
    }
    (t, nargs)
}

/// A short description of a term where it does not belong: a leaf as it
/// prints, a compound term by its kind (printing it could be deep).
fn describe(t: &Term) -> String {
    match t {
        Term::Lam(..) => "a λ".into(),
        Term::App(..) => "an application".into(),
        Term::Pair(..) | Term::Fst(_) | Term::Snd(_) => "a pair or projection".into(),
        leaf => format!("`{leaf}`"),
    }
}
