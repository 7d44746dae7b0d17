//! Slice browsing and backward navigation — the KDbg GUI's moral
//! equivalent (paper Fig. 9).
//!
//! The GUI lets the programmer see all slice statements highlighted, click
//! a statement to see its concrete (inter-thread) dependences, and
//! "navigate backwards along dependence edges by clicking on the Activate
//! button of the dependent statement". [`SliceBrowser`] provides the same
//! operations as an API plus a text rendering: a cursor over the dynamic
//! dependence graph that can move backward along data or control edges.

use minivm::Program;
use slicer::{DataEdge, GlobalTrace, RecordId, Slice};

/// One outgoing dependence of the cursor's statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepEdge {
    /// A data dependence through `key`.
    Data {
        /// The defining record.
        def: RecordId,
        /// Rendered location (e.g. `t0:r3` or `[0x1000]`).
        key: String,
        /// The concrete value that flowed along the edge (what the cursor's
        /// statement read) — the GUI shows these next to each dependence.
        value: Option<i64>,
    },
    /// The dynamic control dependence.
    Control {
        /// The controlling branch record.
        branch: RecordId,
    },
}

/// A navigable view over a computed slice.
#[derive(Debug)]
pub struct SliceBrowser<'a> {
    slice: &'a Slice,
    trace: &'a GlobalTrace,
    cursor: RecordId,
}

impl<'a> SliceBrowser<'a> {
    /// Opens a browser positioned at the slice criterion.
    pub fn new(slice: &'a Slice, trace: &'a GlobalTrace) -> SliceBrowser<'a> {
        SliceBrowser {
            slice,
            trace,
            cursor: slice.criterion.record_id(),
        }
    }

    /// The record the cursor is on.
    pub fn cursor(&self) -> RecordId {
        self.cursor
    }

    /// Moves the cursor to an arbitrary slice record.
    ///
    /// Returns false (cursor unchanged) when `id` is not in the slice.
    pub fn goto(&mut self, id: RecordId) -> bool {
        if self.slice.records.contains(&id) {
            self.cursor = id;
            true
        } else {
            false
        }
    }

    /// Statement instances in the slice, in execution (retire, ascending
    /// id) order.
    pub fn statements(&self) -> Vec<RecordId> {
        let mut v: Vec<RecordId> = self.slice.records.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The dependences of the cursor's statement: every data edge plus the
    /// control edge, backward-navigable.
    pub fn deps(&self) -> Vec<DepEdge> {
        let user_record = self.trace.record(self.cursor);
        let mut out: Vec<DepEdge> = self
            .slice
            .data_edges
            .iter()
            .filter(|e| e.user == self.cursor)
            .map(|e: &DataEdge| {
                let value = user_record
                    .and_then(|r| r.use_keys(true).find(|(k, _)| *k == e.key).map(|(_, v)| v));
                DepEdge::Data {
                    def: e.def,
                    key: e.key.to_string(),
                    value,
                }
            })
            .collect();
        if let Some(&(_, branch)) = self
            .slice
            .control_edges
            .iter()
            .find(|&&(dep, _)| dep == self.cursor)
        {
            out.push(DepEdge::Control { branch });
        }
        out
    }

    /// Follows the `idx`-th dependence backward (the GUI's "Activate"),
    /// moving the cursor to the defining/controlling statement.
    ///
    /// Returns the new cursor, or `None` when `idx` is out of range.
    pub fn activate(&mut self, idx: usize) -> Option<RecordId> {
        let target = match self.deps().into_iter().nth(idx)? {
            DepEdge::Data { def, .. } => def,
            DepEdge::Control { branch } => branch,
        };
        self.cursor = target;
        Some(target)
    }

    /// Describes the cursor's statement (thread, instance, instruction,
    /// source line).
    pub fn describe_cursor(&self, program: &Program) -> String {
        self.describe_record(self.cursor, program)
    }

    /// Describes an arbitrary record of the trace.
    pub fn describe_record(&self, id: RecordId, program: &Program) -> String {
        match self.trace.record(id) {
            Some(r) => format!(
                "t{} {}#{} line {}: {}",
                r.tid,
                program.describe_pc(r.pc),
                r.instance,
                r.line,
                r.instr
            ),
            None => format!("<record {id} not in trace>"),
        }
    }

    /// Renders the program listing with slice statements marked — the
    /// text-mode analogue of KDbg's yellow highlighting.
    pub fn render_listing(&self, program: &Program) -> String {
        let pcs = self.slice.pcs(self.trace);
        let cursor_pc = self.trace.record(self.cursor).map(|r| r.pc);
        let mut out = String::new();
        for (pc, ins) in program.code.iter().enumerate() {
            let pc = pc as u32;
            if let Some(f) = program.functions.iter().find(|f| f.entry == pc) {
                out.push_str(&format!("{}:\n", f.name));
            }
            let mark = if Some(pc) == cursor_pc {
                "=>"
            } else if pcs.contains(&pc) {
                " *"
            } else {
                "  "
            };
            out.push_str(&format!("{mark} {pc:>5}  {ins}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;
    use slicer::{Criterion, SliceSession, SlicerOptions};

    fn setup() -> (Arc<minivm::Program>, SliceSession) {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 2      ; 0
                    movi r9, 99    ; 1 (irrelevant)
                    addi r2, r1, 3  ; 2
                    beqi r2, 5, t   ; 3
                    nop             ; 4
                t:
                    add r3, r2, r1  ; 5
                    halt            ; 6
                .endfunc
                ",
            )
            .unwrap(),
        );
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "browse-test",
        )
        .unwrap();
        let session =
            SliceSession::collect(Arc::clone(&program), &rec.pinball, SlicerOptions::default());
        (program, session)
    }

    #[test]
    fn navigate_backward_along_data_edges() {
        let (_, session) = setup();
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let mut browser = SliceBrowser::new(&slice, session.trace());
        assert_eq!(browser.cursor(), crit);
        let deps = browser.deps();
        assert!(!deps.is_empty(), "criterion has data deps");
        // Follow the first data edge backward.
        let new_cursor = browser.activate(0).unwrap();
        assert_ne!(new_cursor, crit);
        assert!(slice.records.contains(&new_cursor));
    }

    #[test]
    fn statements_are_in_execution_order() {
        let (_, session) = setup();
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let browser = SliceBrowser::new(&slice, session.trace());
        let stmts = browser.statements();
        assert_eq!(stmts.len(), slice.len());
        assert!(stmts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn listing_marks_slice_and_cursor() {
        let (program, session) = setup();
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let browser = SliceBrowser::new(&slice, session.trace());
        let listing = browser.render_listing(&program);
        assert!(listing.contains("=>     5"), "cursor marked:\n{listing}");
        assert!(
            listing.contains(" *     0"),
            "slice line marked:\n{listing}"
        );
        assert!(
            listing.contains("       1"),
            "irrelevant line unmarked:\n{listing}"
        );
    }

    #[test]
    fn goto_rejects_non_slice_records() {
        let (_, session) = setup();
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let irrelevant = session.last_at_pc(1).unwrap().id;
        let mut browser = SliceBrowser::new(&slice, session.trace());
        assert!(!browser.goto(irrelevant));
        assert_eq!(browser.cursor(), crit);
    }

    #[test]
    fn control_edge_navigable() {
        let (_, session) = setup();
        // Slice at the instruction *after* the branch... pc 5 is control
        // dependent on the branch at 3 only if 5 is inside its region; the
        // branch jumps to 5 which is its postdominator, so instead check
        // via a guarded statement. Use the branch itself in-slice via data.
        let crit = session.last_at_pc(5).unwrap().id;
        let slice = session.slice(Criterion::Record { id: crit });
        let browser = SliceBrowser::new(&slice, session.trace());
        // Every slice record's deps resolve to slice members.
        for &id in &browser.statements() {
            let mut b = SliceBrowser::new(&slice, session.trace());
            b.goto(id);
            for (i, _) in b.deps().iter().enumerate() {
                let mut b2 = SliceBrowser::new(&slice, session.trace());
                b2.goto(id);
                let t = b2.activate(i).unwrap();
                assert!(slice.records.contains(&t), "edges stay inside the slice");
            }
        }
    }
}
