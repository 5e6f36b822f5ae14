//! The incremental Sequitur compressor.
//!
//! Implementation notes
//! --------------------
//!
//! The grammar is held as one circular doubly-linked list per rule, with a
//! *guard* node closing the circle (the guard doubles as the handle from
//! the rule to its body: `guard.next` is the first body symbol,
//! `guard.prev` the last). Nodes live in an arena (`Vec<Node>` + free
//! list) and are addressed by index, so the whole crate is safe Rust. A
//! node's value is one `u32`: a terminal is its symbol, a rule use or a
//! guard a 2-bit tag over the rule id.
//!
//! A digram table maps each pair of adjacent symbol values, packed into
//! one `u64`, to the first and last of its occurrences; the occurrences
//! of one digram are threaded through the arena in insertion order, so
//! indexing a digram allocates nothing. Appending a terminal to the
//! start rule triggers the classic cascade:
//!
//! * **digram uniqueness** — if the new digram already occurs elsewhere,
//!   either reuse the rule whose whole body it is, or create a fresh rule
//!   and substitute both occurrences;
//! * **rule utility** — rules whose occurrence count drops to one are
//!   inlined at their sole remaining use and deleted.
//!
//! Unlike the textbook C implementation, rule-utility enforcement here is
//! driven by a worklist over exact per-rule use counts rather than a
//! single opportunistic check, which makes the invariant hold
//! unconditionally (the property tests in `tests/` exercise this). Each
//! rule keeps its count and the XOR of its use sites' node ids: the only
//! site ever looked up is the sole one left when the count is one, and
//! that is the XOR.

use std::collections::hash_map::{Entry, HashMap};

use hds_trace::Symbol;

use crate::grammar::{GSym, Grammar, Rule, RuleId};

/// Arena index of a symbol node. `NIL` marks "no node".
type NodeId = u32;
const NIL: NodeId = u32::MAX;

/// Value stored in a node, packed into a `u32`. A terminal is its symbol
/// (below 2^31, so the top bit is clear); a rule use or a guard is the
/// tag `0b10` or `0b11` in the top two bits over a rule id below 2^30.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Value(u32);

/// A [`Value`] taken apart.
enum Kind {
    /// A terminal symbol.
    Terminal(Symbol),
    /// A use (occurrence) of rule `r`.
    Rule(u32),
    /// The guard node of rule `r`; never part of any digram.
    Guard(u32),
}

impl Value {
    const RULE: u32 = 0b10 << 30;
    const GUARD: u32 = 0b11 << 30;
    /// The largest rule id, and the mask that extracts one.
    const MAX_RULE: u32 = (1 << 30) - 1;

    fn terminal(t: Symbol) -> Value {
        assert!(
            t.0 < Value::RULE,
            "terminal {} out of range: Sequitur terminals must be below 2^31",
            t.0
        );
        Value(t.0)
    }

    fn rule(r: u32) -> Value {
        Value(Value::RULE | r)
    }

    fn guard(r: u32) -> Value {
        Value(Value::GUARD | r)
    }

    fn kind(self) -> Kind {
        match self.0 >> 30 {
            0b10 => Kind::Rule(self.0 & Value::MAX_RULE),
            0b11 => Kind::Guard(self.0 & Value::MAX_RULE),
            _ => Kind::Terminal(Symbol(self.0)),
        }
    }

    fn is_guard(self) -> bool {
        self.0 >= Value::GUARD
    }
}

/// Digram key: two adjacent non-guard values, `first << 32 | second`.
fn digram(first: Value, second: Value) -> u64 {
    u64::from(first.0) << 32 | u64::from(second.0)
}

#[derive(Clone, Debug)]
struct Node {
    value: Value,
    prev: NodeId,
    next: NodeId,
    /// The next indexed occurrence of this node's digram, in insertion
    /// order (`NIL` ends the list). Meaningful only while the digram
    /// starting here is indexed.
    same: NodeId,
}

#[derive(Clone, Debug)]
struct RuleData {
    guard: NodeId,
    /// Number of nodes whose value is a use of this rule.
    uses: u32,
    /// XOR of those nodes' arena indices: the sole use when `uses == 1`.
    use_xor: NodeId,
    /// Length of the rule's expansion, in terminals. Fixed at rule
    /// creation (rule bodies only ever change in expansion-preserving
    /// ways); the start rule's length grows with every append.
    length: u64,
    live: bool,
}

/// The incremental Sequitur grammar compressor.
///
/// Feed symbols one at a time with [`Sequitur::append`]; take analysis
/// snapshots with [`Sequitur::grammar`]. Construction is deterministic:
/// the same input always yields the same grammar.
///
/// # Examples
///
/// ```
/// use hds_sequitur::Sequitur;
/// use hds_trace::Symbol;
///
/// let mut seq = Sequitur::new();
/// seq.extend([Symbol(0), Symbol(1), Symbol(0), Symbol(1)]);
/// assert_eq!(seq.input_len(), 4);
/// // "abab" compresses to S -> A A, A -> a b.
/// assert_eq!(seq.grammar().rule_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Sequitur {
    nodes: Vec<Node>,
    free_nodes: Vec<NodeId>,
    rules: Vec<RuleData>,
    free_rules: Vec<u32>,
    /// Occurrence index: every live guard-free adjacency is recorded under
    /// its digram key, as the (first, last) of a list threaded through
    /// `Node::same`. By the uniqueness invariant a key's occupants are
    /// pairwise *overlapping* (runs like `aaa`), so the lists stay tiny;
    /// keeping all of them (rather than one canonical occurrence, as in
    /// the textbook implementation) means destroying one occurrence never
    /// strands an unindexed survivor. The keys derive from the traced
    /// program's references, so the map keeps std's keyed hasher.
    digrams: HashMap<u64, (NodeId, NodeId)>,
    /// Rules whose occurrence count may have dropped to one.
    pending_utility: Vec<u32>,
    input_len: u64,
}

impl Default for Sequitur {
    fn default() -> Self {
        Sequitur::new()
    }
}

impl Sequitur {
    /// Creates an empty compressor containing just the start rule `S`.
    #[must_use]
    pub fn new() -> Self {
        let mut seq = Sequitur {
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            rules: Vec::new(),
            free_rules: Vec::new(),
            digrams: HashMap::new(),
            pending_utility: Vec::new(),
            input_len: 0,
        };
        let start = seq.alloc_rule();
        debug_assert_eq!(start, 0);
        seq
    }

    /// Number of symbols appended so far (the length of the input string).
    #[must_use]
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Number of live rules, including the start rule.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        // Every rule slot is either live or on the free list.
        self.rules.len() - self.free_rules.len()
    }

    /// Total number of live body symbols across all rules — the grammar
    /// size in which both Sequitur and the hot-stream analysis are linear.
    #[must_use]
    pub fn grammar_size(&self) -> usize {
        // Every live rule owns exactly one live guard node.
        self.nodes.len() - self.free_nodes.len() - self.rule_count()
    }

    /// Appends one symbol of the input string, restoring both Sequitur
    /// invariants before returning.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 2^31 or above: a node stores a terminal and a
    /// rule reference in the same `u32`, so terminals take its lower
    /// half. Symbols from a [`hds_trace::SymbolTable`] are dense from
    /// zero and stay far below.
    pub fn append(&mut self, t: Symbol) {
        let value = Value::terminal(t);
        self.input_len += 1;
        self.rules[0].length += 1;
        let guard = self.rules[0].guard;
        let last = self.nodes[guard as usize].prev;
        self.insert_after(last, value);
        // The only new adjacency is (last, node).
        self.check(last);
        self.drain_utility();
    }

    /// Takes an immutable snapshot of the current grammar as a dense DAG.
    /// Rule ids are renumbered; id 0 is the start rule.
    #[must_use]
    pub fn grammar(&self) -> Grammar {
        // Dense renumbering of live rules, start rule first.
        let mut dense = vec![u32::MAX; self.rules.len()];
        let mut next = 0u32;
        for (i, r) in self.rules.iter().enumerate() {
            if r.live {
                dense[i] = next;
                next += 1;
            }
        }
        let mut out = Vec::with_capacity(next as usize);
        for (i, r) in self.rules.iter().enumerate() {
            if !r.live {
                continue;
            }
            let mut body = Vec::new();
            let mut n = self.nodes[r.guard as usize].next;
            while n != r.guard {
                match self.nodes[n as usize].value.kind() {
                    Kind::Terminal(t) => body.push(GSym::Terminal(t)),
                    Kind::Rule(rr) => body.push(GSym::Rule(RuleId(dense[rr as usize]))),
                    Kind::Guard(_) => unreachable!("guard inside rule body of rule {i}"),
                }
                n = self.nodes[n as usize].next;
            }
            out.push(Rule::new(body, r.length));
        }
        Grammar::new(out)
    }

    /// Expands the start rule back to the full input string. Equivalent to
    /// `self.grammar().expand_start()` but avoids building the snapshot.
    #[must_use]
    pub fn expand_start(&self) -> Vec<Symbol> {
        let mut out = Vec::with_capacity(self.input_len as usize);
        self.expand_into(0, &mut out);
        out
    }

    fn expand_into(&self, rule: u32, out: &mut Vec<Symbol>) {
        // Iterative DFS over (node) positions to avoid deep recursion.
        let mut stack = vec![self.nodes[self.rules[rule as usize].guard as usize].next];
        let mut rule_stack = vec![rule];
        while let Some(&n) = stack.last() {
            let owner = *rule_stack.last().expect("rule stack parallels node stack");
            let guard = self.rules[owner as usize].guard;
            if n == guard {
                stack.pop();
                rule_stack.pop();
                if let Some(top) = stack.last_mut() {
                    *top = self.nodes[*top as usize].next;
                }
                continue;
            }
            match self.nodes[n as usize].value.kind() {
                Kind::Terminal(t) => {
                    out.push(t);
                    *stack.last_mut().expect("nonempty") = self.nodes[n as usize].next;
                }
                Kind::Rule(r) => {
                    stack.push(self.nodes[self.rules[r as usize].guard as usize].next);
                    rule_stack.push(r);
                }
                Kind::Guard(_) => unreachable!("guard mid-body"),
            }
        }
    }

    /// Verifies both Sequitur invariants plus internal bookkeeping
    /// consistency: use counts, use-site XORs, the free lists and the
    /// threaded digram lists are rebuilt from the adjacency and
    /// compared. Used pervasively by the test suite, and once per
    /// profiling phase in debug builds; O(grammar size).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut free = vec![false; self.nodes.len()];
        for &n in &self.free_nodes {
            if std::mem::replace(&mut free[n as usize], true) {
                return Err(format!("node {n} freed twice"));
            }
        }
        // 1. Linked-list integrity & use bookkeeping.
        let mut uses = vec![(0u32, 0u32); self.rules.len()];
        let mut digram_count: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for (ri, rule) in self.rules.iter().enumerate() {
            if !rule.live {
                continue;
            }
            let guard = rule.guard;
            if free[guard as usize] {
                return Err(format!("rule {ri} has a dead guard node"));
            }
            let mut n = self.nodes[guard as usize].next;
            let mut body_len = 0usize;
            while n != guard {
                let node = &self.nodes[n as usize];
                if free[n as usize] {
                    return Err(format!("dead node {n} linked in rule {ri}"));
                }
                if self.nodes[node.next as usize].prev != n {
                    return Err(format!("broken link at node {n}"));
                }
                match node.value.kind() {
                    Kind::Guard(_) => {
                        return Err(format!("guard node {n} inside body of rule {ri}"))
                    }
                    Kind::Rule(r) => {
                        if !self.rules[r as usize].live {
                            return Err(format!("rule {ri} references dead rule {r}"));
                        }
                        let (count, xor) = &mut uses[r as usize];
                        *count += 1;
                        *xor ^= n;
                    }
                    Kind::Terminal(_) => {}
                }
                // Collect digrams.
                let next = node.next;
                if next != guard {
                    let key = digram(node.value, self.nodes[next as usize].value);
                    digram_count.entry(key).or_default().push(n);
                }
                n = node.next;
                body_len += 1;
                if body_len > self.nodes.len() {
                    return Err(format!("rule {ri} body does not terminate"));
                }
            }
            if ri != 0 && body_len < 2 {
                return Err(format!("rule {ri} has body of length {body_len} (< 2)"));
            }
        }
        // Use counts and sites match.
        let mut live_rules = 0;
        for (ri, rule) in self.rules.iter().enumerate() {
            if !rule.live {
                continue;
            }
            live_rules += 1;
            let (count, xor) = uses[ri];
            if (count, xor) != (rule.uses, rule.use_xor) {
                return Err(format!(
                    "rule {ri} use bookkeeping mismatch: recorded {} uses (xor {}), actual {count} (xor {xor})",
                    rule.uses, rule.use_xor
                ));
            }
            if ri != 0 && count < 2 {
                return Err(format!(
                    "rule utility violated: rule {ri} used {count} time(s)"
                ));
            }
        }
        if live_rules != self.rule_count() {
            return Err(format!(
                "{live_rules} rules are live but the free list leaves {}",
                self.rule_count()
            ));
        }
        // 2. Digram uniqueness (all same-key occurrences pairwise
        //    overlapping) + occurrence-index consistency (index == the set
        //    of live adjacencies, exactly).
        for (&key, positions) in &digram_count {
            for (i, &p) in positions.iter().enumerate() {
                for &q in &positions[i + 1..] {
                    let p_next = self.nodes[p as usize].next;
                    let q_next = self.nodes[q as usize].next;
                    let overlapping = p_next == q || q_next == p;
                    // Like the reference implementation, Sequitur leaves
                    // runs of one repeated symbol (aaaa…) only partially
                    // compressed: same-key occurrences inside one run are
                    // permitted. Any other duplicate is a violation.
                    let v = self.nodes[p as usize].value;
                    if !overlapping
                        && !(key == digram(v, v)
                            && (self.same_run(p, q, v) || self.same_run(q, p, v)))
                    {
                        return Err(format!(
                            "digram uniqueness violated for {key:#018x}: nodes {p} and {q}"
                        ));
                    }
                }
            }
        }
        let mut indexed = 0usize;
        for (&key, &(head, tail)) in &self.digrams {
            let actual = digram_count.get(&key);
            let (mut n, mut last) = (head, NIL);
            while n != NIL {
                if !actual.is_some_and(|v| v.contains(&n)) {
                    return Err(format!("stale digram index entry {key:#018x} -> node {n}"));
                }
                indexed += 1;
                if indexed > self.nodes.len() {
                    return Err(format!("digram list {key:#018x} does not terminate"));
                }
                (last, n) = (n, self.nodes[n as usize].same);
            }
            if last != tail || last == NIL {
                return Err(format!(
                    "digram list {key:#018x} ends at {last}, recorded {tail}"
                ));
            }
        }
        // Every live adjacency is indexed exactly once: no entry is stale
        // and a node heads one digram, so equal counts mean equal sets.
        let live_digrams: usize = digram_count.values().map(Vec::len).sum();
        if indexed != live_digrams {
            return Err(format!(
                "{live_digrams} live digram occurrences but {indexed} indexed"
            ));
        }
        // 3. Recorded lengths match actual expansions.
        let snapshot = self.grammar();
        snapshot.verify()?;
        Ok(())
    }

    // ----- arena plumbing ---------------------------------------------

    fn alloc_node(&mut self, value: Value) -> NodeId {
        let node = Node {
            value,
            prev: NIL,
            next: NIL,
            same: NIL,
        };
        if let Some(id) = self.free_nodes.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            let id = u32::try_from(self.nodes.len()).expect("node arena overflow");
            self.nodes.push(node);
            id
        }
    }

    fn alloc_rule(&mut self) -> u32 {
        let id = match self.free_rules.pop() {
            Some(id) => id,
            None => u32::try_from(self.rules.len())
                .ok()
                .filter(|&id| id <= Value::MAX_RULE)
                .expect("rule arena overflow"),
        };
        let guard = self.alloc_node(Value::guard(id));
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        let data = RuleData {
            guard,
            uses: 0,
            use_xor: 0,
            length: 0,
            live: true,
        };
        match self.rules.get_mut(id as usize) {
            Some(slot) => *slot = data,
            None => self.rules.push(data),
        }
        id
    }

    fn free_rule(&mut self, r: u32) {
        debug_assert!(self.rules[r as usize].live);
        debug_assert_eq!(self.rules[r as usize].uses, 0);
        let guard = self.rules[r as usize].guard;
        self.free_nodes.push(guard);
        self.rules[r as usize].live = false;
        self.free_rules.push(r);
    }

    /// Records node `n` as a use of rule `r`.
    fn add_use(&mut self, r: u32, n: NodeId) {
        let rule = &mut self.rules[r as usize];
        rule.uses += 1;
        rule.use_xor ^= n;
    }

    /// Forgets node `n` as a use of rule `r` (XOR is its own inverse).
    fn remove_use(&mut self, r: u32, n: NodeId) {
        let rule = &mut self.rules[r as usize];
        rule.uses -= 1;
        rule.use_xor ^= n;
    }

    // ----- digram table helpers ---------------------------------------

    fn digram_key(&self, first: NodeId) -> Option<u64> {
        let node = &self.nodes[first as usize];
        if node.value.is_guard() {
            return None;
        }
        let second = self.nodes[node.next as usize].value;
        (!second.is_guard()).then(|| digram(node.value, second))
    }

    /// Records the digram `key` starting at `first` in the occurrence
    /// index, last in its list. Idempotent.
    fn index_digram(&mut self, key: u64, first: NodeId) {
        match self.digrams.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((first, first));
            }
            Entry::Occupied(mut slot) => {
                let (head, tail) = slot.get_mut();
                let mut n = *head;
                while n != NIL {
                    if n == first {
                        return;
                    }
                    n = self.nodes[n as usize].same;
                }
                self.nodes[*tail as usize].same = first;
                *tail = first;
            }
        }
        self.nodes[first as usize].same = NIL;
    }

    /// Removes the occurrence of the digram starting at `first` from the
    /// index (other — necessarily overlapping — occurrences of the same
    /// digram stay indexed, in order).
    fn unindex_digram(&mut self, first: NodeId) {
        let Some(key) = self.digram_key(first) else {
            return;
        };
        let Entry::Occupied(mut slot) = self.digrams.entry(key) else {
            return;
        };
        let (head, tail) = slot.get_mut();
        let mut before = NIL;
        let mut n = *head;
        while n != first {
            if n == NIL {
                return;
            }
            before = n;
            n = self.nodes[n as usize].same;
        }
        let after = self.nodes[first as usize].same;
        if before == NIL {
            *head = after;
        } else {
            self.nodes[before as usize].same = after;
        }
        if *tail == first {
            *tail = before;
        }
        if *head == NIL {
            slot.remove();
        }
    }

    // ----- structural edits -------------------------------------------

    /// Inserts a fresh node with `value` immediately after `pos`,
    /// maintaining use counts (not the digram table — callers manage
    /// the affected adjacencies).
    fn insert_after(&mut self, pos: NodeId, value: Value) -> NodeId {
        let n = self.alloc_node(value);
        let next = self.nodes[pos as usize].next;
        self.nodes[n as usize].prev = pos;
        self.nodes[n as usize].next = next;
        self.nodes[pos as usize].next = n;
        self.nodes[next as usize].prev = n;
        if let Kind::Rule(r) = value.kind() {
            self.add_use(r, n);
        }
        n
    }

    /// Unlinks and frees `n`, maintaining use counts and scheduling a
    /// utility check if the referenced rule dropped to one use. The
    /// adjacent digram entries must already have been unindexed.
    fn delete_node(&mut self, n: NodeId) {
        let Node {
            prev, next, value, ..
        } = self.nodes[n as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        if let Kind::Rule(r) = value.kind() {
            self.remove_use(r, n);
            if self.rules[r as usize].uses == 1 {
                self.pending_utility.push(r);
            }
        }
        self.free_nodes.push(n);
    }

    // ----- the Sequitur cascade ---------------------------------------

    /// Checks the digram starting at `first` against the digram table,
    /// triggering a match if it occurs elsewhere. Returns `true` if the
    /// grammar was rewritten.
    fn check(&mut self, first: NodeId) -> bool {
        let Some(key) = self.digram_key(first) else {
            return false;
        };
        // A digram seen for the first time is indexed with one lookup.
        let head = match self.digrams.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((first, first));
                self.nodes[first as usize].same = NIL;
                return false;
            }
            Entry::Occupied(slot) => slot.get().0,
        };
        match self.partner_from(head, first) {
            None => {
                self.index_digram(key, first);
                false
            }
            Some(other) => {
                self.match_digram(first, other);
                true
            }
        }
    }

    /// Finds an indexed occurrence of `key` that does not overlap the
    /// occurrence at `first`, preferring one that forms a whole rule body
    /// (so existing rules are reused rather than duplicated).
    fn find_partner(&self, key: u64, first: NodeId) -> Option<NodeId> {
        let &(head, _) = self.digrams.get(&key)?;
        self.partner_from(head, first)
    }

    /// [`Sequitur::find_partner`] over the list that starts at `head`.
    fn partner_from(&self, head: NodeId, first: NodeId) -> Option<NodeId> {
        let mut fallback = None;
        let mut o = head;
        while o != NIL {
            let overlapping = o == first
                || self.nodes[o as usize].next == first
                || self.nodes[first as usize].next == o;
            if !overlapping {
                if self.is_whole_body(o) {
                    return Some(o);
                }
                fallback = fallback.or(Some(o));
            }
            o = self.nodes[o as usize].same;
        }
        fallback
    }

    /// Is node `q` reachable from node `p` by following `next` links
    /// through nodes that all carry value `v` (i.e. are `p` and `q` in the
    /// same run of one repeated symbol)? Used only by the invariant
    /// checker.
    fn same_run(&self, p: NodeId, q: NodeId, v: Value) -> bool {
        let mut n = p;
        for _ in 0..self.nodes.len() {
            if self.nodes[n as usize].value != v {
                return false;
            }
            if n == q {
                return true;
            }
            n = self.nodes[n as usize].next;
        }
        false
    }

    /// Does the digram starting at `o` constitute the entire body of a
    /// rule?
    fn is_whole_body(&self, o: NodeId) -> bool {
        let prev = self.nodes[o as usize].prev;
        let second = self.nodes[o as usize].next;
        let after = self.nodes[second as usize].next;
        self.nodes[prev as usize].value.is_guard() && self.nodes[after as usize].value.is_guard()
    }

    /// The new digram at `new` equals the indexed digram at `old`.
    /// Either reuse the rule whose entire body is that digram, or create a
    /// fresh rule and substitute both occurrences.
    fn match_digram(&mut self, new: NodeId, old: NodeId) {
        if self.is_whole_body(old) {
            let prev = self.nodes[old as usize].prev;
            let Kind::Guard(r) = self.nodes[prev as usize].value.kind() else {
                unreachable!("is_whole_body checked the guard")
            };
            self.substitute(new, r);
        } else {
            // Create a new rule whose body is a copy of the digram.
            let v1 = self.nodes[new as usize].value;
            let v2 = self.nodes[self.nodes[new as usize].next as usize].value;
            let key = digram(v1, v2);
            let r = self.alloc_rule();
            self.rules[r as usize].length = self.value_len(v1) + self.value_len(v2);
            let guard = self.rules[r as usize].guard;
            let b1 = self.insert_after(guard, v1);
            let _b2 = self.insert_after(b1, v2);
            // Replace the *old* occurrence first (as in the reference
            // implementation), then the new one.
            self.substitute(old, r);
            self.substitute(new, r);
            // Index the new rule's body digram, and fold in any further
            // occurrences the substitution cascades may have (re-)created:
            // each is a whole-body match for the fresh rule.
            self.index_digram(key, b1);
            while let Some(stray) = self.find_partner(key, b1) {
                if !self.rules[r as usize].live {
                    break; // r was inlined away by a utility cascade
                }
                self.substitute(stray, r);
            }
        }
    }

    /// Replaces the digram starting at `first` with an occurrence of rule
    /// `r`, then re-checks the adjacencies the replacement created.
    fn substitute(&mut self, first: NodeId, r: u32) {
        let prev = self.nodes[first as usize].prev;
        let second = self.nodes[first as usize].next;
        // Unindex the three adjacencies that are about to be destroyed:
        // (prev, first), (first, second), (second, after).
        self.unindex_digram(prev);
        self.unindex_digram(first);
        self.unindex_digram(second);
        self.delete_node(second);
        self.delete_node(first);
        let occurrence = self.insert_after(prev, Value::rule(r));
        // Check the two new adjacencies. If the left check rewrites the
        // grammar, it re-checks its own aftermath; otherwise the right
        // adjacency is still intact and must be checked here.
        if !self.check(prev) {
            self.check(occurrence);
        }
    }

    fn value_len(&self, v: Value) -> u64 {
        match v.kind() {
            Kind::Terminal(_) => 1,
            Kind::Rule(r) => self.rules[r as usize].length,
            Kind::Guard(_) => 0,
        }
    }

    /// Enforces rule utility: expands (inlines) every rule left with a
    /// single occurrence, cascading as necessary.
    fn drain_utility(&mut self) {
        while let Some(r) = self.pending_utility.pop() {
            let rule = &self.rules[r as usize];
            if !rule.live || rule.uses != 1 {
                continue; // count changed since scheduling
            }
            let site = rule.use_xor;
            self.expand_rule_at(site, r);
        }
    }

    /// Inlines rule `r`'s body in place of its sole occurrence `site` and
    /// deletes the rule.
    fn expand_rule_at(&mut self, site: NodeId, r: u32) {
        let left = self.nodes[site as usize].prev;
        let right = self.nodes[site as usize].next;
        let guard = self.rules[r as usize].guard;
        let first = self.nodes[guard as usize].next;
        let last = self.nodes[guard as usize].prev;
        debug_assert_ne!(first, guard, "expanding an empty rule");
        // Unindex the adjacencies destroyed by removing `site`:
        // (left, site) and (site, right). Body-internal digram entries
        // stay valid because the body nodes are spliced, not copied.
        self.unindex_digram(left);
        self.unindex_digram(site);
        // Remove the occurrence node. Bypass delete_node's utility
        // scheduling: the rule is about to die.
        self.remove_use(r, site);
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
        self.free_nodes.push(site);
        // Splice the body between left and right.
        self.nodes[left as usize].next = first;
        self.nodes[first as usize].prev = left;
        self.nodes[last as usize].next = right;
        self.nodes[right as usize].prev = last;
        // Detach and delete the rule (guard freed by free_rule).
        self.nodes[guard as usize].next = guard;
        self.nodes[guard as usize].prev = guard;
        self.free_rule(r);
        // Two new adjacencies: (left, first) and (last, right). As in
        // substitute(), a rewrite at the left adjacency re-checks its own
        // aftermath; the right adjacency must be checked regardless, since
        // it is positionally disjoint unless the body had length 2 and a
        // left rewrite already consumed `first`. check() is safe either
        // way because it recomputes adjacency from live links.
        self.check(left);
        self.check(self.nodes[right as usize].prev);
    }
}

impl Extend<Symbol> for Sequitur {
    fn extend<I: IntoIterator<Item = Symbol>>(&mut self, iter: I) {
        for s in iter {
            self.append(s);
        }
    }
}

impl FromIterator<Symbol> for Sequitur {
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> Self {
        let mut seq = Sequitur::new();
        seq.extend(iter);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(s: &str) -> Vec<Symbol> {
        s.bytes().map(|b| Symbol(u32::from(b - b'a'))).collect()
    }

    fn build(s: &str) -> Sequitur {
        let mut seq = Sequitur::new();
        for sym in syms(s) {
            seq.append(sym);
            seq.check_invariants()
                .unwrap_or_else(|e| panic!("invariant broken after '{s}': {e}"));
        }
        seq
    }

    #[test]
    fn empty_grammar_is_well_formed() {
        let seq = Sequitur::new();
        seq.check_invariants().unwrap();
        assert_eq!(seq.input_len(), 0);
        assert_eq!(seq.rule_count(), 1);
        assert!(seq.expand_start().is_empty());
    }

    #[test]
    fn single_symbol() {
        let seq = build("a");
        assert_eq!(seq.expand_start(), syms("a"));
        assert_eq!(seq.rule_count(), 1);
    }

    #[test]
    fn no_repetition_stays_flat() {
        let seq = build("abcdefg");
        assert_eq!(seq.expand_start(), syms("abcdefg"));
        assert_eq!(seq.rule_count(), 1);
    }

    #[test]
    fn abab_creates_one_rule() {
        let seq = build("abab");
        assert_eq!(seq.expand_start(), syms("abab"));
        let g = seq.grammar();
        assert_eq!(g.rule_count(), 2);
        // S -> A A, A -> a b
        assert_eq!(g.rule(RuleId(0)).body().len(), 2);
        assert_eq!(g.rule(RuleId(1)).length(), 2);
    }

    #[test]
    fn overlapping_digrams_do_not_explode() {
        for s in ["aaa", "aaaa", "aaaaa", "aaaaaaaaaa"] {
            let seq = build(s);
            assert_eq!(seq.expand_start(), syms(s), "round-trip failed for {s}");
        }
    }

    #[test]
    fn fig4_grammar_structure() {
        // Paper Figure 4: w = abaabcabcabcabc yields
        // S -> A a B B, A -> a b, B -> C C, C -> A c.
        let seq = build("abaabcabcabcabc");
        assert_eq!(seq.expand_start(), syms("abaabcabcabcabc"));
        let g = seq.grammar();
        assert_eq!(g.rule_count(), 4, "grammar:\n{g}");
        // Collect expansions of the three non-start rules.
        let mut expansions: Vec<String> = g
            .iter()
            .skip(1)
            .map(|(id, _)| {
                g.expand(id)
                    .iter()
                    .map(|s| char::from(b'a' + u8::try_from(s.0).unwrap()))
                    .collect()
            })
            .collect();
        expansions.sort();
        assert_eq!(expansions, vec!["ab", "abc", "abcabc"], "grammar:\n{g}");
        // Start rule body has 4 symbols: A a B B.
        assert_eq!(g.rule(RuleId::START).body().len(), 4, "grammar:\n{g}");
        assert_eq!(g.rule(RuleId::START).length(), 15);
    }

    #[test]
    fn rule_utility_inlines_singleton_rules() {
        // "abcdbcabcd": classic case where an intermediate rule loses its
        // second use and must be inlined.
        let seq = build("abcdbcabcd");
        assert_eq!(seq.expand_start(), syms("abcdbcabcd"));
    }

    #[test]
    fn long_periodic_input_compresses_logarithmically() {
        let mut input = String::new();
        for _ in 0..256 {
            input.push_str("abcd");
        }
        let mut seq = Sequitur::new();
        for sym in syms(&input) {
            seq.append(sym);
        }
        seq.check_invariants().unwrap();
        assert_eq!(seq.expand_start(), syms(&input));
        // 1024 symbols of period 4 need only O(log n) rules.
        assert!(
            seq.rule_count() <= 16,
            "expected logarithmic growth, got {} rules",
            seq.rule_count()
        );
        assert!(seq.grammar_size() <= 64);
    }

    #[test]
    fn determinism_same_input_same_grammar() {
        let a = build("abacadaeabacadae");
        let b = build("abacadaeabacadae");
        assert_eq!(a.grammar(), b.grammar());
    }

    #[test]
    fn snapshot_is_dense_and_well_formed_after_rule_churn() {
        // Interleave patterns so rules are created and destroyed.
        let seq = build("abcabdabeabfabgabcabdabeabfabg");
        let g = seq.grammar();
        g.verify().unwrap();
        assert_eq!(g.expand_start(), syms("abcabdabeabfabg").repeat(2));
    }

    #[test]
    fn grammar_size_and_input_len_track() {
        let seq = build("abcabcabc");
        assert_eq!(seq.input_len(), 9);
        assert!(seq.grammar_size() < 9, "repetition must compress");
    }

    #[test]
    fn from_iterator_collects() {
        let seq: Sequitur = syms("abab").into_iter().collect();
        assert_eq!(seq.expand_start(), syms("abab"));
    }

    #[test]
    #[should_panic(expected = "must be below 2^31")]
    fn terminal_at_two_to_the_31_panics() {
        let mut seq = Sequitur::new();
        seq.append(Symbol((1 << 31) - 1));
        seq.append(Symbol(1 << 31));
    }

    #[test]
    fn alternating_then_shifted_patterns() {
        // Exercises rule reuse where the matched digram is a whole body.
        let seq = build("xyxyzxyxyz");
        assert_eq!(seq.expand_start(), syms("xyxyzxyxyz"));
        let g = seq.grammar();
        g.verify().unwrap();
    }
}
