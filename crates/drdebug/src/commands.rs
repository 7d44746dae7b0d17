//! The gdb-style command interpreter.
//!
//! DrDebug fronts its machinery with gdb plus new commands (paper §1:
//! "new commands for region recording and dynamic slicing are made
//! available"). This module is that command surface: a line-oriented
//! interpreter over [`DebugSession`], with the slice-browsing verbs the
//! KDbg GUI exposes as buttons (Fig. 9's `slice`, dependence activation)
//! and the §4 execution-slice workflow (`save-slice`, `replay-slice`,
//! `step-slice`).

use minivm::{Pc, Reg, Tid};
use slicer::{LocKey, RecordId, Slice};

use crate::browse::SliceBrowser;
use crate::session::{DebugSession, StopReason};
use crate::stepper::{SliceStep, SliceStepper};

/// A line-oriented debugger front end.
pub struct CommandInterpreter {
    session: DebugSession,
    current_slice: Option<Slice>,
    cursor: Option<RecordId>,
    stepper: Option<SliceStepper>,
}

impl std::fmt::Debug for CommandInterpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommandInterpreter")
            .field("session", &self.session)
            .field("has_slice", &self.current_slice.is_some())
            .finish()
    }
}

impl CommandInterpreter {
    /// Wraps a debug session.
    pub fn new(session: DebugSession) -> CommandInterpreter {
        CommandInterpreter {
            session,
            current_slice: None,
            cursor: None,
            stepper: None,
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &DebugSession {
        &self.session
    }

    /// Executes one command line and returns the textual response.
    pub fn execute(&mut self, line: &str) -> String {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return String::new();
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => HELP.to_owned(),
            "break" | "b" => self.cmd_break(&args),
            "delete" => self.cmd_delete(&args),
            "enable" => self.cmd_enable(&args, true),
            "disable" => self.cmd_enable(&args, false),
            "info" => self.cmd_info(&args),
            "continue" | "c" => {
                let stop = self.run_continue();
                self.report_stop(stop)
            }
            "stepi" | "si" => self.cmd_stepi(&args),
            "reverse-stepi" | "reverse-step" | "rsi" => {
                let stop = self.session.reverse_stepi();
                self.report_stop(stop)
            }
            "reverse-continue" | "rc" => {
                let stop = self.session.reverse_continue();
                self.report_stop(stop)
            }
            "watch" => self.cmd_watch(&args),
            "delete-watch" => self.cmd_delete_watch(&args),
            "restart" => {
                self.session.restart();
                "restarted: replaying the same pinball from the region entry".to_owned()
            }
            "seek" => self.cmd_seek(&args),
            "print" | "p" => self.cmd_print(&args),
            "x" => self.cmd_examine(&args),
            "list" | "l" => self.cmd_list(),
            "where" => self.cmd_where(),
            "slice" => self.cmd_slice(&args),
            "slice-line" => self.cmd_slice_line(&args),
            "prune-var" => self.cmd_prune_var(&args),
            "clear-prune" => {
                self.session.clear_prune_keys();
                "prune-vars cleared".to_owned()
            }
            "slice-failure" => self.cmd_slice_failure(),
            "metrics" => self.cmd_metrics(),
            "deps" => self.cmd_deps(),
            "activate" => self.cmd_activate(&args),
            "statements" => self.cmd_statements(),
            "save-slice" => self.cmd_save_slice(),
            "save-slice-file" => self.cmd_save_slice_file(&args),
            "load-slice-file" => self.cmd_load_slice_file(&args),
            "replay-slice" => self.cmd_replay_slice(&args),
            "relog" => self.cmd_relog(&args),
            "step-slice" => self.cmd_step_slice(),
            "restart-slice" => self.cmd_restart_slice(),
            other => format!("unknown command `{other}` (try `help`)"),
        }
    }

    fn run_continue(&mut self) -> StopReason {
        self.session.cont()
    }

    fn report_stop(&self, stop: StopReason) -> String {
        match stop {
            StopReason::Breakpoint { id, tid, pc } => {
                let loc = self.session.program().describe_pc(pc);
                format!("breakpoint {id} hit: thread {tid} at {loc} (pc {pc})")
            }
            StopReason::Stepped { tid, pc } => {
                let loc = self.session.program().describe_pc(pc);
                format!("thread {tid} stepped: {loc} (pc {pc})")
            }
            StopReason::Watchpoint { id, tid, pc, value } => {
                let loc = self.session.program().describe_pc(pc);
                format!("watchpoint {id} hit: thread {tid} wrote {value} at {loc} (pc {pc})")
            }
            StopReason::ReplayStart => "at the start of the recorded region".to_owned(),
            StopReason::ReplayEnd => "replay finished: end of recorded region".to_owned(),
            StopReason::Trapped(e) => format!("trap reproduced: {e}"),
        }
    }

    fn parse_loc(&self, s: &str) -> Option<Pc> {
        if let Ok(pc) = s.parse::<Pc>() {
            return Some(pc);
        }
        let (name, off) = match s.split_once('+') {
            Some((n, o)) => (n, o.parse::<Pc>().ok()?),
            None => (s, 0),
        };
        let program = self.session.program();
        program
            .function(name)
            .map(|f| f.entry)
            .or_else(|| program.label(name))
            .map(|entry| entry + off)
    }

    fn cmd_break(&mut self, args: &[&str]) -> String {
        let Some(loc) = args.first().and_then(|s| self.parse_loc(s)) else {
            return "usage: break <pc|func|label[+off]> [tid]".to_owned();
        };
        let tid = args.get(1).and_then(|s| s.parse::<Tid>().ok());
        let id = self.session.add_breakpoint(loc, tid);
        format!("breakpoint {id} at pc {loc}")
    }

    fn cmd_watch(&mut self, args: &[&str]) -> String {
        let Some(what) = args.first() else {
            return "usage: watch <addr|symbol>".to_owned();
        };
        let addr = self
            .session
            .program()
            .symbol(what)
            .or_else(|| parse_u64(what));
        match addr {
            Some(addr) => {
                let id = self.session.add_watchpoint(addr);
                format!("watchpoint {id} on [{addr:#x}]")
            }
            None => format!("cannot resolve `{what}` to an address"),
        }
    }

    fn cmd_delete_watch(&mut self, args: &[&str]) -> String {
        match args.first().and_then(|s| s.parse::<u32>().ok()) {
            Some(id) if self.session.delete_watchpoint(id) => format!("deleted watchpoint {id}"),
            Some(id) => format!("no watchpoint {id}"),
            None => "usage: delete-watch <id>".to_owned(),
        }
    }

    fn cmd_delete(&mut self, args: &[&str]) -> String {
        match args.first().and_then(|s| s.parse::<u32>().ok()) {
            Some(id) if self.session.delete_breakpoint(id) => format!("deleted breakpoint {id}"),
            Some(id) => format!("no breakpoint {id}"),
            None => "usage: delete <id>".to_owned(),
        }
    }

    fn cmd_enable(&mut self, args: &[&str], enabled: bool) -> String {
        match args.first().and_then(|s| s.parse::<u32>().ok()) {
            Some(id) if self.session.enable_breakpoint(id, enabled) => {
                format!(
                    "breakpoint {id} {}",
                    if enabled { "enabled" } else { "disabled" }
                )
            }
            Some(id) => format!("no breakpoint {id}"),
            None => "usage: enable|disable <id>".to_owned(),
        }
    }

    fn cmd_info(&mut self, args: &[&str]) -> String {
        match args.first().copied() {
            Some("breakpoints") => {
                let mut out = String::from("id  pc     tid    enabled\n");
                for (id, bp) in self.session.breakpoints() {
                    out.push_str(&format!(
                        "{:<3} {:<6} {:<6} {}\n",
                        id,
                        bp.pc,
                        bp.tid.map_or("any".to_owned(), |t| t.to_string()),
                        bp.enabled
                    ));
                }
                out
            }
            Some("watchpoints") => {
                let mut out = String::from("id  addr      enabled\n");
                for (id, wp) in self.session.watchpoints() {
                    out.push_str(&format!("{:<3} {:#8x} {}\n", id, wp.addr, wp.enabled));
                }
                out
            }
            Some("threads") => {
                let mut out = String::from("tid  pc     state\n");
                for (tid, pc, runnable) in self.session.threads() {
                    out.push_str(&format!(
                        "{:<4} {:<6} {}\n",
                        tid,
                        pc,
                        if runnable { "runnable" } else { "halted" }
                    ));
                }
                out
            }
            Some("checkpoints") => {
                let (embedded, session) = self.session.checkpoint_positions();
                let fmt_list = |v: &[u64]| {
                    if v.is_empty() {
                        "(none)".to_owned()
                    } else {
                        v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
                    }
                };
                format!(
                    "embedded container checkpoints at instructions: {}\n\
                     session checkpoints at instructions: {}\n",
                    fmt_list(&embedded),
                    fmt_list(&session)
                )
            }
            Some("container") => {
                // Report the session's container as encoded by the current
                // (v4) writer: version, per-frame codecs, compression.
                let bytes = match self.session.container().to_bytes() {
                    Ok(bytes) => bytes,
                    Err(e) => return format!("cannot encode container: {e}"),
                };
                match pinplay::inspect(&bytes) {
                    Ok(report) => report.to_string(),
                    Err(e) => format!("cannot inspect container: {e}"),
                }
            }
            _ => "usage: info breakpoints|watchpoints|threads|checkpoints|container".to_owned(),
        }
    }

    fn cmd_seek(&mut self, args: &[&str]) -> String {
        let Some(target) = args.first().and_then(|s| s.parse::<u64>().ok()) else {
            return "usage: seek <instruction-count>".to_owned();
        };
        let stop = self.session.seek_to(target);
        format!(
            "seeked to instruction {}: {}",
            self.session.position(),
            self.report_stop(stop)
        )
    }

    fn cmd_stepi(&mut self, args: &[&str]) -> String {
        let n: u32 = args.first().and_then(|s| s.parse().ok()).unwrap_or(1);
        let mut last = String::new();
        for _ in 0..n.max(1) {
            let stop = self.session.stepi();
            last = self.report_stop(stop);
            if matches!(stop, StopReason::ReplayEnd | StopReason::Trapped(_)) {
                break;
            }
        }
        last
    }

    fn parse_reg(s: &str) -> Option<Reg> {
        if s == "sp" {
            return Some(Reg::SP);
        }
        let n: u8 = s.strip_prefix('r')?.parse().ok()?;
        (n < 16).then_some(Reg(n))
    }

    fn cmd_print(&mut self, args: &[&str]) -> String {
        let Some(what) = args.first() else {
            return "usage: print <rN [tid] | symbol | *addr>".to_owned();
        };
        if let Some(reg) = Self::parse_reg(what) {
            let tid: Tid = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .or_else(|| self.session.stopped_at().map(|s| s.tid))
                .unwrap_or(0);
            return match self.session.read_reg(tid, reg) {
                Some(value) => format!("t{tid}:{reg} = {value}"),
                None => format!("no thread {tid}"),
            };
        }
        if let Some(addr) = what.strip_prefix('*').and_then(parse_u64) {
            return format!("[{addr:#x}] = {}", self.session.read_mem(addr));
        }
        match self.session.read_symbol(what) {
            Some(v) => format!("{what} = {v}"),
            None => format!("unknown symbol `{what}`"),
        }
    }

    fn cmd_examine(&mut self, args: &[&str]) -> String {
        let Some(addr) = args.first().and_then(|s| parse_u64(s)) else {
            return "usage: x <addr> [count]".to_owned();
        };
        let n: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
        // The listing stops at the top of the address space, and after
        // `EXAMINE_MAX_WORDS` words.
        let n = n.min((u64::MAX - addr).saturating_add(1));
        let shown = n.min(EXAMINE_MAX_WORDS);
        let mut lines: Vec<String> = (0..shown)
            .map(|i| addr + i)
            .map(|a| format!("[{a:#x}] = {}", self.session.read_mem(a)))
            .collect();
        if n > shown {
            lines.push(format!(
                "({} more words not listed: x lists at most {EXAMINE_MAX_WORDS})",
                n - shown
            ));
        }
        lines.join("\n")
    }

    fn cmd_where(&mut self) -> String {
        match self.session.stopped_at() {
            Some(site) => format!(
                "thread {} at {} (pc {}, instance {}, seq {})",
                site.tid,
                self.session.program().describe_pc(site.pc),
                site.pc,
                site.instance,
                site.seq
            ),
            None => "not started (use continue/stepi)".to_owned(),
        }
    }

    fn cmd_list(&mut self) -> String {
        match (&self.current_slice, self.cursor) {
            (Some(slice), Some(cursor)) => {
                let program = std::sync::Arc::clone(self.session.program());
                let slicer = self.session.slicer();
                let mut b = SliceBrowser::new(slice, slicer.trace());
                b.goto(cursor);
                b.render_listing(&program)
            }
            _ => self.session.program().disassemble(),
        }
    }

    fn set_slice(&mut self, slice: Slice) -> String {
        let n = slice.len();
        let scanned = slice.stats.records_scanned;
        self.cursor = Some(slice.criterion.record_id());
        self.current_slice = Some(slice);
        format!(
            "slice computed: {n} statement instances, {scanned} records scanned \
             (use statements/deps/activate/metrics/list)"
        )
    }

    fn cmd_metrics(&mut self) -> String {
        let seek = format!("seek metrics:\n{}", self.session.seek_metrics());
        match self.session.metrics() {
            Some(m) => {
                let index = match self.session.last_slice_warm_index() {
                    Some(true) => "last slice: answered from a warm dependence index\n",
                    Some(false) => "last slice: built the dependence index (cold)\n",
                    None => "",
                };
                format!("pipeline stage metrics:\n{m}\n{index}{seek}")
            }
            None => format!("no trace collected yet (run a slice command first)\n{seek}"),
        }
    }

    fn cmd_slice(&mut self, args: &[&str]) -> String {
        let Some(site) = self.session.stopped_at() else {
            return "not stopped anywhere; continue/stepi first".to_owned();
        };
        let slice = match args.first() {
            None => self.session.slice_here_record(),
            Some(what) => {
                if let Some(reg) = Self::parse_reg(what) {
                    self.session.slice_here(LocKey::Reg(site.tid, reg))
                } else if let Some(addr) = self.session.program().symbol(what) {
                    self.session.slice_here(LocKey::Mem(addr))
                } else if let Some(addr) = what.strip_prefix('*').and_then(parse_u64) {
                    self.session.slice_here(LocKey::Mem(addr))
                } else {
                    return format!("cannot resolve `{what}` to a register or symbol");
                }
            }
        };
        match slice {
            Some(s) => self.set_slice(s),
            None => "no trace record at the stop site".to_owned(),
        }
    }

    fn cmd_prune_var(&mut self, args: &[&str]) -> String {
        let Some(what) = args.first() else {
            return "usage: prune-var <symbol | rN [tid]>".to_owned();
        };
        let key = if let Some(reg) = Self::parse_reg(what) {
            let tid: minivm::Tid = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .or_else(|| self.session.stopped_at().map(|s| s.tid))
                .unwrap_or(0);
            LocKey::Reg(tid, reg)
        } else if let Some(addr) = self.session.program().symbol(what) {
            LocKey::Mem(addr)
        } else if let Some(addr) = what.strip_prefix('*').and_then(parse_u64) {
            LocKey::Mem(addr)
        } else {
            return format!("cannot resolve `{what}`");
        };
        self.session.add_prune_key(key);
        format!(
            "pruning {key} from slice traversal ({} pruned vars)",
            self.session.prune_keys().len()
        )
    }

    fn cmd_slice_line(&mut self, args: &[&str]) -> String {
        let Some(line) = args.first().and_then(|s| s.parse::<u32>().ok()) else {
            return "usage: slice-line <line> [rN tid | symbol]".to_owned();
        };
        let key = match args.get(1) {
            None => None,
            Some(what) => {
                if let Some(reg) = Self::parse_reg(what) {
                    let tid: minivm::Tid = args
                        .get(2)
                        .and_then(|s| s.parse().ok())
                        .or_else(|| self.session.stopped_at().map(|s| s.tid))
                        .unwrap_or(0);
                    Some(LocKey::Reg(tid, reg))
                } else if let Some(addr) = self.session.program().symbol(what) {
                    Some(LocKey::Mem(addr))
                } else {
                    return format!("cannot resolve `{what}`");
                }
            }
        };
        match self.session.slice_at_line(line, key) {
            Some(s) => self.set_slice(s),
            None => format!("no executed statement on line {line}"),
        }
    }

    fn cmd_slice_failure(&mut self) -> String {
        match self.session.slice_failure() {
            Some(s) => self.set_slice(s),
            None => "empty trace".to_owned(),
        }
    }

    fn with_browser<R>(&mut self, f: impl FnOnce(&mut SliceBrowser<'_>) -> R) -> Result<R, String> {
        let (Some(slice), Some(cursor)) = (&self.current_slice, self.cursor) else {
            return Err("no slice computed (use `slice`)".to_owned());
        };
        // Ensure the slicer session exists, then browse immutably.
        self.session.slicer();
        let slicer = self.session.slicer();
        let mut b = SliceBrowser::new(slice, slicer.trace());
        b.goto(cursor);
        let r = f(&mut b);
        Ok(r)
    }

    fn cmd_deps(&mut self) -> String {
        let program = std::sync::Arc::clone(self.session.program());
        match self.with_browser(|b| {
            let head = b.describe_cursor(&program);
            let deps = b.deps();
            (head, deps)
        }) {
            Ok((head, deps)) => {
                let mut out = format!("at {head}\n");
                if deps.is_empty() {
                    out.push_str("  (no dependences within the region)\n");
                }
                for (i, d) in deps.iter().enumerate() {
                    match d {
                        crate::browse::DepEdge::Data { def, key, value } => {
                            let v = value.map_or(String::new(), |v| format!(" = {v}"));
                            out.push_str(&format!(
                                "  [{i}] data dep through {key}{v} <- record {def}\n"
                            ));
                        }
                        crate::browse::DepEdge::Control { branch } => {
                            out.push_str(&format!(
                                "  [{i}] control dep <- branch record {branch}\n"
                            ));
                        }
                    }
                }
                out
            }
            Err(e) => e,
        }
    }

    fn cmd_activate(&mut self, args: &[&str]) -> String {
        let Some(idx) = args.first().and_then(|s| s.parse::<usize>().ok()) else {
            return "usage: activate <dep-index>".to_owned();
        };
        let program = std::sync::Arc::clone(self.session.program());
        let result =
            self.with_browser(|b| b.activate(idx).map(|id| (id, b.describe_cursor(&program))));
        match result {
            Ok(Some((id, desc))) => {
                self.cursor = Some(id);
                format!("moved to {desc}")
            }
            Ok(None) => format!("no dependence with index {idx}"),
            Err(e) => e,
        }
    }

    fn cmd_statements(&mut self) -> String {
        let program = std::sync::Arc::clone(self.session.program());
        match self.with_browser(|b| {
            b.statements()
                .into_iter()
                .map(|id| format!("  {} {}", id, b.describe_record(id, &program)))
                .collect::<Vec<_>>()
                .join("\n")
        }) {
            Ok(s) => format!("slice statements (execution order):\n{s}"),
            Err(e) => e,
        }
    }

    fn cmd_save_slice(&mut self) -> String {
        match self.current_slice.clone() {
            Some(slice) => {
                let idx = self.session.save_slice(slice);
                format!("saved slice {idx}")
            }
            None => "no slice computed".to_owned(),
        }
    }

    fn cmd_save_slice_file(&mut self, args: &[&str]) -> String {
        let Some(path) = args.first() else {
            return "usage: save-slice-file <path>".to_owned();
        };
        let Some(slice) = self.current_slice.clone() else {
            return "no slice computed".to_owned();
        };
        self.session.slicer();
        let slicer = self.session.slicer_ref().expect("collected above");
        let (exclusions, _) = slicer.exclusion_regions(&slice);
        let name = self.session.pinball().meta.program.clone();
        let sf = slicer::SliceFile::build(&name, &slice, slicer.trace(), exclusions);
        match sf.save(std::path::Path::new(path)) {
            Ok(()) => format!(
                "slice file written to {path} ({} statements + exclusion regions)",
                sf.statements.len()
            ),
            Err(e) => format!("cannot write slice file: {e}"),
        }
    }

    fn cmd_load_slice_file(&mut self, args: &[&str]) -> String {
        let Some(path) = args.first() else {
            return "usage: load-slice-file <path>".to_owned();
        };
        match slicer::SliceFile::load(std::path::Path::new(path)) {
            Ok(sf) => {
                let slice = sf.to_slice();
                // Slices are valid across sessions thanks to PinPlay's
                // repeatability guarantee (paper §1).
                self.session.slicer();
                self.set_slice(slice)
            }
            Err(e) => format!("cannot load slice file: {e}"),
        }
    }

    fn cmd_replay_slice(&mut self, args: &[&str]) -> String {
        let Some(idx) = args.first().and_then(|s| s.parse::<usize>().ok()) else {
            return "usage: replay-slice <saved-slice-index>".to_owned();
        };
        if idx >= self.session.saved_slices().len() {
            return format!("no saved slice {idx}");
        }
        let pb = self.session.make_slice_pinball(idx);
        let kept = pb.logged_instructions();
        let slicer = self
            .session
            .slicer_ref()
            .expect("make_slice_pinball collects the slicer session");
        let slice = &self.session.saved_slices()[idx];
        self.stepper = Some(SliceStepper::new(slicer, slice, &pb));
        format!("slice pinball generated ({kept} instructions kept); use step-slice")
    }

    fn cmd_relog(&mut self, args: &[&str]) -> String {
        let Some(idx) = args.first().and_then(|s| s.parse::<usize>().ok()) else {
            return "usage: relog <saved-slice-index> [path]".to_owned();
        };
        if idx >= self.session.saved_slices().len() {
            return format!("no saved slice {idx}");
        }
        let (container, report) = self.session.relog_slice(idx);
        let mut out = format!(
            "relogged slice {idx} into slice pinball {}: {} instructions kept \
             ({} slice statements + {} forced sync), {} excluded, \
             {} embedded checkpoints",
            report.digest,
            report.kept,
            report.in_slice,
            report.forced,
            report.excluded,
            container.checkpoints.len(),
        );
        if let Some(path) = args.get(1) {
            match container.to_bytes() {
                Ok(bytes) => match std::fs::write(path, &bytes) {
                    Ok(()) => out.push_str(&format!(
                        "\nslice pinball written to {path} ({} bytes)",
                        bytes.len()
                    )),
                    Err(e) => out.push_str(&format!("\ncannot write {path}: {e}")),
                },
                Err(e) => out.push_str(&format!("\ncannot encode container: {e}")),
            }
        }
        out
    }

    fn cmd_restart_slice(&mut self) -> String {
        match self.stepper.as_mut() {
            Some(stepper) => {
                stepper.restart();
                "slice replay restarted from the region entry".to_owned()
            }
            None => "no slice replay active (use replay-slice)".to_owned(),
        }
    }

    fn cmd_step_slice(&mut self) -> String {
        let Some(stepper) = self.stepper.as_mut() else {
            return "no slice replay active (use replay-slice)".to_owned();
        };
        match stepper.step() {
            SliceStep::AtStatement { tid, pc, record } => {
                let loc = self.session.program().describe_pc(pc);
                format!("slice statement: thread {tid} at {loc} (pc {pc}, record {record})")
            }
            SliceStep::Finished => {
                self.stepper = None;
                "slice replay finished".to_owned()
            }
            SliceStep::Trapped(e) => {
                self.stepper = None;
                format!("slice replay reproduced the failure: {e}")
            }
        }
    }
}

/// The most memory words one `x` command lists.
const EXAMINE_MAX_WORDS: u64 = 1024;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

const HELP: &str = "\
DrDebug commands:
  break <pc|func|label[+off]> [tid]   set a breakpoint
  delete|enable|disable <id>    manage breakpoints
  info breakpoints|threads|checkpoints   inspect session state
  info container                container format report (frames, codecs, sizes)
  continue | c                  replay until breakpoint/trap/end
  stepi [n] | si                step n instructions
  reverse-stepi | reverse-step | rsi   step one instruction BACKWARDS
  reverse-continue | rc         run backwards to the previous break/watch hit
  seek <n>                      jump to instruction n (O(chunk) w/ checkpoints)
  watch <addr|sym>              stop when a memory word is written
  delete-watch <id>             remove a watchpoint
  restart                       replay the pinball from the start (cyclic!)
  print <rN [tid]|sym|*addr>    read registers/memory
  x <addr> [count]              examine memory words
  where                         current stop site
  list                          program listing (slice lines marked)
  slice [rN|sym|*addr]          backward dynamic slice at the stop site
  slice-line <line> [var]       slice at a source line (Fig. 9 dialog)
  prune-var <sym|rN> | clear-prune   Fig. 9 'Prune Vars': don't chase these
  slice-failure                 slice at the failure point
  metrics                       per-stage slicing pipeline metrics
  statements | deps             browse the current slice
  activate <i>                  follow dependence i backward
  save-slice                    save the current slice (in session)
  save-slice-file <path>        write the slice + exclusion regions to disk
  load-slice-file <path>        load a slice saved by a previous session
  replay-slice <idx>            build + load the slice pinball
  relog <idx> [path]            relog a saved slice into a content-addressed
                                v4 slice-pinball container (optionally to disk)
  step-slice                    run to the next slice statement
  restart-slice                 replay the slice pinball from the start
";

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    fn interp(src: &str) -> CommandInterpreter {
        let program = Arc::new(assemble(src).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            100_000,
            "cmd-test",
        )
        .unwrap();
        CommandInterpreter::new(DebugSession::new(program, rec.pinball))
    }

    const PROG: &str = r"
        .data
        x: .word 0
        .text
        .func main
            movi r1, 5      ; 0
            movi r9, 77     ; 1 irrelevant
            la r2, x        ; 2
            store r1, r2, 0 ; 3
            load r3, r2, 0  ; 4
            addi r3, r3, 1  ; 5
            halt            ; 6
        .endfunc
        ";

    #[test]
    fn breakpoint_continue_print_workflow() {
        let mut d = interp(PROG);
        let out = d.execute("break 3");
        assert!(out.contains("breakpoint 1"), "{out}");
        let out = d.execute("continue");
        assert!(out.contains("breakpoint 1 hit"), "{out}");
        let out = d.execute("print x");
        assert!(out.contains("x = 5"), "{out}");
        let out = d.execute("print r1");
        assert!(out.contains("= 5"), "{out}");
        let out = d.execute("where");
        assert!(out.contains("pc 3"), "{out}");
        let out = d.execute("continue");
        assert!(out.contains("replay finished"), "{out}");
    }

    #[test]
    fn restart_is_cyclic() {
        let mut d = interp(PROG);
        d.execute("break 4");
        let a = d.execute("continue");
        d.execute("restart");
        let b = d.execute("continue");
        assert_eq!(a, b, "identical stop on every iteration");
    }

    #[test]
    fn slice_browse_and_activate() {
        let mut d = interp(PROG);
        d.execute("break 5");
        d.execute("continue");
        let out = d.execute("slice r3");
        assert!(out.contains("slice computed"), "{out}");
        let out = d.execute("statements");
        assert!(out.contains("movi r1, 5"), "{out}");
        assert!(!out.contains("movi r9"), "irrelevant excluded: {out}");
        let out = d.execute("deps");
        assert!(out.contains("[0]"), "{out}");
        let out = d.execute("activate 0");
        assert!(out.contains("moved to"), "{out}");
        let out = d.execute("list");
        assert!(out.contains("=>"), "{out}");
    }

    #[test]
    fn save_and_step_slice() {
        let mut d = interp(PROG);
        d.execute("break 5");
        d.execute("continue");
        d.execute("slice r3");
        let out = d.execute("save-slice");
        assert!(out.contains("saved slice 0"), "{out}");
        let out = d.execute("replay-slice 0");
        assert!(out.contains("slice pinball generated"), "{out}");
        let mut stops = 0;
        loop {
            let out = d.execute("step-slice");
            if out.contains("finished") {
                break;
            }
            assert!(out.contains("slice statement"), "{out}");
            stops += 1;
            assert!(stops < 100, "stepper must terminate");
        }
        assert!(stops >= 4, "several slice statements stepped: {stops}");
    }

    #[test]
    fn unknown_command_and_help() {
        let mut d = interp(PROG);
        assert!(d.execute("frobnicate").contains("unknown command"));
        assert!(d.execute("help").contains("step-slice"));
        assert!(d.execute("help").contains("metrics"));
        assert!(d.execute("help").contains("relog"));
        assert!(d.execute("help").contains("reverse-step"));
        assert_eq!(d.execute(""), "");
    }

    #[test]
    fn relog_writes_a_loadable_slice_pinball_container() {
        let mut d = interp(PROG);
        d.execute("break 5");
        d.execute("continue");
        d.execute("slice r3");
        d.execute("save-slice");
        assert!(d.execute("relog 9").contains("no saved slice 9"));
        let path = std::env::temp_dir().join("drdebug-relog-cmd-test.pb3");
        let path_s = path.to_str().unwrap().to_owned();
        let out = d.execute(&format!("relog 0 {path_s}"));
        assert!(out.contains("relogged slice 0"), "{out}");
        assert!(out.contains("instructions kept"), "{out}");
        assert!(out.contains("slice pinball written"), "{out}");
        // The written container round-trips and replays as a new session.
        let bytes = std::fs::read(&path).unwrap();
        let container = pinplay::PinballContainer::from_bytes(&bytes).unwrap();
        assert!(container.pinball.meta.is_slice);
        let program = std::sync::Arc::clone(d.session().program());
        let mut d2 = CommandInterpreter::new(DebugSession::with_container(program, container));
        let out = d2.execute("continue");
        assert!(out.contains("replay finished"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reverse_step_alias_matches_reverse_stepi() {
        let mut d = interp(PROG);
        d.execute("stepi 4");
        let out = d.execute("reverse-step");
        assert!(out.contains("stepped"), "{out}");
        let back = d.execute("print x");
        assert!(back.contains("x = 0"), "store rolled back: {back}");
    }

    #[test]
    fn metrics_report_pipeline_stages() {
        let mut d = interp(PROG);
        let out = d.execute("metrics");
        assert!(out.contains("no trace collected"), "{out}");
        d.execute("break 5");
        d.execute("continue");
        let out = d.execute("slice r3");
        assert!(out.contains("records scanned"), "{out}");
        let out = d.execute("metrics");
        assert!(out.contains("collect"), "{out}");
        assert!(out.contains("traverse"), "{out}");
        assert!(out.contains("dependences pruned"), "{out}");
        assert!(out.contains("cold (built)"), "{out}");
        assert!(
            out.contains("built the dependence index"),
            "first slice is a cold index build: {out}"
        );
        d.execute("slice r3");
        let out = d.execute("metrics");
        assert!(out.contains("warm (reused)"), "{out}");
        assert!(
            out.contains("answered from a warm dependence index"),
            "repeat slice hits the warm index: {out}"
        );
    }

    #[test]
    fn break_resolves_labels() {
        // `x:` in .data is a symbol, not a code label; use a code label.
        let mut d = interp(
            r"
            .text
            .func main
                movi r1, 1
            here:
                addi r1, r1, 1
                halt
            .endfunc
            ",
        );
        let out = d.execute("break here");
        assert!(out.contains("breakpoint 1 at pc 1"), "{out}");
        let out = d.execute("continue");
        assert!(out.contains("breakpoint 1 hit"), "{out}");
    }

    #[test]
    fn info_and_examine() {
        let mut d = interp(PROG);
        d.execute("break main+3 0");
        let out = d.execute("info breakpoints");
        assert!(out.contains('3'), "{out}");
        d.execute("continue");
        let out = d.execute("x 0x1000 1");
        assert!(out.contains("= 5"), "{out}");
        let out = d.execute("info threads");
        assert!(out.contains("runnable") || out.contains("halted"), "{out}");
    }

    #[test]
    fn print_of_an_unknown_thread_and_x_at_the_top_of_memory_do_not_panic() {
        let mut d = interp(PROG);
        d.execute("stepi");
        let out = d.execute("print r1 7");
        assert_eq!(out, "no thread 7");
        let out = d.execute("x 0xffffffffffffffff 2");
        assert_eq!(out, "[0xffffffffffffffff] = 0");
    }

    #[test]
    fn x_lists_at_most_the_cap_and_says_how_many_words_it_cut() {
        let mut d = interp(PROG);
        let out = d.execute("x 0 1000000");
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines.len() as u64 <= EXAMINE_MAX_WORDS + 1,
            "{}",
            lines.len()
        );
        assert_eq!(lines[0], "[0x0] = 0");
        let cut = 1_000_000 - EXAMINE_MAX_WORDS;
        assert!(
            lines.last().unwrap().contains(&format!("{cut} more words")),
            "{}",
            lines.last().unwrap()
        );
        // A count within the cap lists every word and no note.
        let out = d.execute(&format!("x 0 {EXAMINE_MAX_WORDS}"));
        assert_eq!(out.lines().count() as u64, EXAMINE_MAX_WORDS);
        assert!(!out.contains("more words"), "{out}");
    }

    #[test]
    fn info_container_reports_frames_and_codecs() {
        let mut d = interp(PROG);
        let out = d.execute("info container");
        assert!(out.contains("container v4"), "{out}");
        assert!(out.contains("binary"), "{out}");
        assert!(out.contains("header"), "{out}");
        assert!(out.contains("index"), "{out}");
        // v4-specific rows: the shared dictionary frame, the columnar
        // events codec, and the per-column size breakdown.
        assert!(out.contains("dict"), "{out}");
        assert!(out.contains("columnar"), "{out}");
        assert!(out.contains("shared dictionary:"), "{out}");
        assert!(out.contains("event columns (encoded):"), "{out}");
        let usage = d.execute("info nonsense");
        assert!(usage.contains("container"), "{usage}");
    }
}

#[cfg(test)]
mod line_and_reverse_tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    fn interp() -> CommandInterpreter {
        // Source lines matter here: the assembler records 1-based lines.
        let src = "\
.data
x: .word 0
.text
.func main
 movi r1, 5
 movi r9, 77
 la r2, x
 store r1, r2, 0
 load r3, r2, 0
 addi r3, r3, 1
 halt
.endfunc
";
        let program = Arc::new(assemble(src).unwrap());
        let rec = record_whole_program(
            &program,
            &mut RoundRobin::new(8),
            &mut LiveEnv::new(0),
            10_000,
            "line-test",
        )
        .unwrap();
        CommandInterpreter::new(DebugSession::new(program, rec.pinball))
    }

    #[test]
    fn slice_line_resolves_source_lines() {
        let mut d = interp();
        d.execute("continue");
        // Line 10 is `addi r3, r3, 1`.
        let out = d.execute("slice-line 10");
        assert!(out.contains("slice computed"), "{out}");
        let stmts = d.execute("statements");
        assert!(stmts.contains("movi r1, 5"), "{stmts}");
        assert!(!stmts.contains("movi r9"), "{stmts}");
        let out = d.execute("slice-line 9999");
        assert!(out.contains("no executed statement"), "{out}");
    }

    #[test]
    fn reverse_commands_through_interpreter() {
        let mut d = interp();
        d.execute("stepi 4");
        let fwd = d.execute("print x");
        assert!(fwd.contains("x = 5"), "{fwd}");
        let out = d.execute("reverse-stepi");
        assert!(out.contains("stepped"), "{out}");
        let back = d.execute("print x");
        assert!(back.contains("x = 0"), "store rolled back: {back}");
    }

    #[test]
    fn watch_command_stops_on_store() {
        let mut d = interp();
        let out = d.execute("watch x");
        assert!(out.contains("watchpoint"), "{out}");
        let out = d.execute("continue");
        assert!(out.contains("wrote 5"), "{out}");
        let out = d.execute("info watchpoints");
        assert!(out.contains("true"), "{out}");
        let out = d.execute("delete-watch 1");
        assert!(out.contains("deleted"), "{out}");
    }

    #[test]
    fn deps_show_concrete_values() {
        let mut d = interp();
        d.execute("continue");
        d.execute("slice-line 10");
        let out = d.execute("deps");
        assert!(
            out.contains("= 5") || out.contains("= 6"),
            "values shown: {out}"
        );
    }
}

#[cfg(test)]
mod slice_file_tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    #[test]
    fn slice_survives_sessions_through_a_file() {
        let program = Arc::new(
            assemble(
                r"
                .text
                .func main
                    movi r1, 2
                    movi r9, 7
                    addi r2, r1, 3
                    halt
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
            "slice-file-cmd",
        )
        .unwrap();
        let path = std::env::temp_dir().join("drdebug-cmd-test.slice");
        let path_s = path.to_str().unwrap().to_owned();

        // Session 1: compute and persist the slice.
        let mut d1 =
            CommandInterpreter::new(DebugSession::new(Arc::clone(&program), rec.pinball.clone()));
        d1.execute("continue");
        d1.execute("slice r2");
        let out = d1.execute(&format!("save-slice-file {path_s}"));
        assert!(out.contains("slice file written"), "{out}");

        // Session 2 (fresh): load it and browse — valid because the pinball
        // replays identically.
        let mut d2 = CommandInterpreter::new(DebugSession::new(program, rec.pinball));
        let out = d2.execute(&format!("load-slice-file {path_s}"));
        assert!(out.contains("slice computed"), "{out}");
        let stmts = d2.execute("statements");
        assert!(stmts.contains("movi r1, 2"), "{stmts}");
        assert!(!stmts.contains("movi r9"), "{stmts}");
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod prune_var_tests {
    use super::*;
    use std::sync::Arc;

    use minivm::{assemble, LiveEnv, RoundRobin};
    use pinplay::record_whole_program;

    #[test]
    fn prune_var_shrinks_subsequent_slices() {
        let program = Arc::new(
            assemble(
                r"
                .data
                config: .word 0
                .text
                .func main
                    movi r1, 3      ; 0 config chain
                    mul  r1, r1, r1 ; 1
                    la r2, config   ; 2
                    store r1, r2, 0 ; 3
                    movi r3, 10     ; 4
                    load r4, r2, 0  ; 5
                    add r5, r3, r4  ; 6
                    halt            ; 7
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
            "prune-cmd",
        )
        .unwrap();
        let mut d = CommandInterpreter::new(DebugSession::new(program, rec.pinball));
        d.execute("continue");
        d.execute("slice r5");
        let full = d.execute("statements");
        assert!(full.contains("store r1"), "{full}");

        let out = d.execute("prune-var config");
        assert!(out.contains("pruning"), "{out}");
        d.execute("slice r5");
        let pruned = d.execute("statements");
        assert!(!pruned.contains("store r1"), "{pruned}");
        assert!(pruned.contains("movi r3, 10"), "{pruned}");

        d.execute("clear-prune");
        d.execute("slice r5");
        let again = d.execute("statements");
        assert!(again.contains("store r1"), "{again}");
    }
}
