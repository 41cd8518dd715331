// aqua_shell — an interactive REPL over the AQUA algebra.
//
//   ./build/tools/aqua_shell
//   aqua> tree family Ted(Ann Gen(Joe(Bob) John(Mary)) Ray)
//   aqua> subselect family Gen(?*)
//   aqua> split family Gen(!?* John !?*)
//
// Atoms in literals are interned as `Item` objects keyed by `name`; richer
// schemas can be declared with `type` / `new` and queried with `{...}`
// predicates. `help` lists everything.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <string>
#include <vector>

#include "aqua.h"
#include "common/str_util.h"
#include "obs/query_context.h"
#include "obs/tasks.h"
#include "query/builder.h"

namespace aqua {
namespace {

/// Fixed-width table renderer for `\plans`: collect header and
/// pre-formatted cells, then pad each column to its widest entry.
/// Numeric-looking columns end up effectively aligned because every cell is
/// formatted with the same precision; the last column is left ragged (it
/// holds plan text of unbounded width).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
  }

  std::string ToString() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
      for (const auto& row : rows_) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    std::string out;
    auto append_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < cells.size(); ++c) {
        if (c + 1 == cells.size()) {
          out += cells[c];  // ragged last column
        } else {
          out.append(widths[c] - cells[c].size(), ' ');
          out += cells[c];
          out += "  ";
        }
      }
      out += '\n';
    };
    append_row(headers_);
    for (const auto& row : rows_) append_row(row);
    return out;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

class Shell {
 public:
  Shell() {
    Status st = RegisterItemType(db().store());
    if (!st.ok()) std::cerr << "init: " << st << "\n";
    atom_ = MakeInterningAtomFn(&db().store(), "Item", "name");
    label_attr_ = "name";
  }

  ~Shell() { JoinBackground(); }

  int Run(std::istream& in, bool interactive) {
    std::string line;
    if (interactive) std::cout << "aqua> " << std::flush;
    while (std::getline(in, line)) {
      std::string_view trimmed = StripWhitespace(line);
      if (!trimmed.empty() && trimmed[0] != '#') {
        if (trimmed == "quit" || trimmed == "exit") break;
        Status st = Dispatch(std::string(trimmed));
        if (!st.ok()) std::cout << "error: " << st << "\n";
      }
      if (interactive) std::cout << "aqua> " << std::flush;
    }
    JoinBackground();
    if (interactive) std::cout << "\n";
    return 0;
  }

 private:
  LabelFn Label() { return AttrLabelFn(&db().store(), label_attr_); }

  PatternParserOptions PatternOpts() {
    PatternParserOptions opts;
    opts.env = &env_;
    opts.default_attr = label_attr_;
    return opts;
  }

  static std::pair<std::string, std::string> SplitFirst(
      const std::string& s) {
    size_t sp = s.find(' ');
    if (sp == std::string::npos) return {s, ""};
    return {s.substr(0, sp),
            std::string(StripWhitespace(s.substr(sp + 1)))};
  }

  Status Dispatch(const std::string& line) {
    auto [cmd, rest] = SplitFirst(line);
    if (cmd == "help") return Help();
    if (cmd == "tree") return CmdTree(rest);
    if (cmd == "list") return CmdList(rest);
    if (cmd == "bind") return CmdBind(rest);
    if (cmd == "index") return CmdIndex(rest);
    if (cmd == "show") return CmdShow(rest);
    if (cmd == "collections") return CmdCollections();
    if (cmd == "stats") return CmdStats(rest);
    if (cmd == "label") return CmdLabel(rest);
    if (cmd == "select") return CmdSelect(rest);
    if (cmd == "subselect") return CmdSubSelect(rest);
    if (cmd == "split") return CmdSplit(rest);
    if (cmd == "allanc") return CmdAllAnc(rest);
    if (cmd == "alldesc") return CmdAllDesc(rest);
    if (cmd == "explain") return CmdExplain(rest);
    if (cmd == "approx") return CmdApprox(rest);
    if (cmd == "nearest") return CmdNearest(rest);
    if (cmd == "dump") return DumpDatabaseToFile(db(), rest);
    if (cmd == "load") return CmdLoad(rest);
    if (cmd == "\\metrics") return CmdObsMetrics(rest);
    if (cmd == "\\trace") return CmdTrace(rest);
    if (cmd == "\\threads") return CmdThreads(rest);
    if (cmd == "\\lint") return CmdLint(rest);
    if (cmd == "\\flight") return CmdFlight(rest);
    if (cmd == "\\plans") return CmdPlans(rest);
    if (cmd == "\\serve") return CmdServe(rest);
    if (cmd == "\\slowlog") return CmdSlowLog(rest);
    if (cmd == "\\profile") return CmdProfile(rest);
    if (cmd == "\\tasks") return CmdTasks(rest);
    if (cmd == "\\snapshot") return CmdSnapshot(rest);
    if (cmd == "\\kill") return CmdKill(rest);
    if (cmd == "\\timeout") return CmdTimeout(rest);
    if (cmd == "\\memoize") return CmdMemoize(rest);
    return Status::InvalidArgument("unknown command '" + cmd +
                                   "' (try `help`)");
  }

  Status Help() {
    std::cout <<
        "commands:\n"
        "  tree <name> <literal>       register a tree, e.g. a(b c(@p))\n"
        "  list <name> <literal>       register a list, e.g. [a b @x c]\n"
        "  bind <name> <predicate>     name a predicate, e.g. bind Old "
        "{age > 60}\n"
        "  index <coll> <attr>         build an attribute index\n"
        "  label <attr>                display/atom attribute (default "
        "name)\n"
        "  show <coll>                 print a collection\n"
        "  collections                 list registered collections\n"
        "  stats <coll>                structural statistics\n"
        "  select <coll> <pred>        order-stable select\n"
        "  subselect <coll> <pattern>  pattern retrieval (list or tree)\n"
        "  split <coll> <pattern>      the primitive: <x, y, z> pieces\n"
        "  allanc <coll> <pattern>     match + ancestors context\n"
        "  alldesc <coll> <pattern>    match + descendants\n"
        "  explain <coll> <pattern>    plan before/after the optimizer\n"
        "  approx <coll> <literal> <k> subtrees within edit distance k\n"
        "  nearest <coll> <literal> <n> top-n closest subtrees\n"
        "  dump <file> / load <file>   serialize / restore the database\n"
        "  \\metrics [json|reset]       process-wide metrics registry\n"
        "  \\plans [n] [by total|calls|p95]\n"
        "                              plan catalogue: top-n plan shapes "
        "(default 10, by total time)\n"
        "  \\plans <fp>                 one plan: digest + per-op observed "
        "rows and selectivities\n"
        "  \\plans json|reset           the catalogue as JSON / clear it\n"
        "  \\plans save|load [path]     persist/restore the catalogue "
        "(default path AQUA_STATS_FILE)\n"
        "  \\trace on|off               per-query span trees (subselect/"
        "split)\n"
        "  \\threads [n]                show/set executor fan-out "
        "parallelism (0 = default)\n"
        "  \\lint <coll> <pattern>      static diagnostics with source "
        "carets, inferred facts, effects\n"
        "  \\lint on|off                toggle the automatic warning banner "
        "(default on)\n"
        "  \\lint level [off|warn|error] show/set enforcement (error "
        "refuses flagged plans; AQUA_LINT env)\n"
        "  \\flight [json|clear]        flight recorder: recent executes + "
        "morsels\n"
        "  \\serve <port>|off           OpenMetrics scrape endpoint on "
        "127.0.0.1\n"
        "  \\slowlog <ms> [path]        slow-query log threshold (0 "
        "disables)\n"
        "  \\profile <n> <query>        run a subselect/split n times, "
        "report quantiles\n"
        "  \\tasks [json]               live task table: in-flight queries\n"
        "  \\snapshot                   versioned store: epoch, live "
        "versions, pins, retained bytes\n"
        "  \\kill <id>                  cancel a running query by task id\n"
        "  \\timeout [ms]               per-query deadline (0 = env default "
        "AQUA_QUERY_TIMEOUT_MS)\n"
        "  \\memoize on|off             tree-match memoization (off shows "
        "unmemoized closure cost)\n"
        "  subselect/split ... &       run the query in the background "
        "(watch with \\tasks)\n"
        "  quit\n";
    return Status::OK();
  }

  Status CmdTree(const std::string& rest) {
    auto [name, literal] = SplitFirst(rest);
    if (name.empty() || literal.empty()) {
      return Status::InvalidArgument("usage: tree <name> <literal>");
    }
    AQUA_ASSIGN_OR_RETURN(Tree tree, ParseTreeLiteral(literal, atom_));
    AQUA_RETURN_IF_ERROR(db().RegisterTree(name, std::move(tree)));
    std::cout << "tree '" << name << "' registered\n";
    return Status::OK();
  }

  Status CmdList(const std::string& rest) {
    auto [name, literal] = SplitFirst(rest);
    if (name.empty() || literal.empty()) {
      return Status::InvalidArgument("usage: list <name> <literal>");
    }
    AQUA_ASSIGN_OR_RETURN(List list, ParseListLiteral(literal, atom_));
    AQUA_RETURN_IF_ERROR(db().RegisterList(name, std::move(list)));
    std::cout << "list '" << name << "' registered\n";
    return Status::OK();
  }

  Status CmdBind(const std::string& rest) {
    auto [name, text] = SplitFirst(rest);
    if (name.empty() || text.empty()) {
      return Status::InvalidArgument("usage: bind <name> <predicate>");
    }
    AQUA_ASSIGN_OR_RETURN(PredicateRef pred, ParsePredicate(text));
    env_.Bind(name, std::move(pred));
    std::cout << "bound " << name << "\n";
    return Status::OK();
  }

  Status CmdIndex(const std::string& rest) {
    auto [coll, attr] = SplitFirst(rest);
    if (coll.empty() || attr.empty()) {
      return Status::InvalidArgument("usage: index <collection> <attr>");
    }
    AQUA_RETURN_IF_ERROR(db().CreateIndex(coll, attr));
    std::cout << "index on " << coll << "." << attr << " built\n";
    return Status::OK();
  }

  Status CmdShow(const std::string& name) {
    if (db().HasTree(name)) {
      AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(name));
      std::cout << PrintTree(*tree, Label()) << "\n";
      return Status::OK();
    }
    AQUA_ASSIGN_OR_RETURN(const List* list, db().GetList(name));
    std::cout << PrintList(*list, Label()) << "\n";
    return Status::OK();
  }

  Status CmdCollections() {
    for (const std::string& name : db().TreeNames()) {
      AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(name));
      std::cout << "tree  " << name << " (" << tree->size() << " nodes)\n";
    }
    for (const std::string& name : db().ListNames()) {
      AQUA_ASSIGN_OR_RETURN(const List* list, db().GetList(name));
      std::cout << "list  " << name << " (" << list->size()
                << " elements)\n";
    }
    return Status::OK();
  }

  Status CmdStats(const std::string& name) {
    if (db().HasList(name)) {
      AQUA_ASSIGN_OR_RETURN(const List* list, db().GetList(name));
      std::cout << "elements: " << list->size() << "\n";
      return Status::OK();
    }
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(name));
    TreeStats stats = ComputeTreeStats(*tree);
    std::cout << "nodes: " << stats.num_nodes
              << "  leaves: " << stats.num_leaves
              << "  points: " << stats.num_points
              << "  height: " << stats.height
              << "  max arity: " << stats.max_arity
              << (stats.fixed_arity ? "  (fixed-arity)" : "") << "\n";
    return Status::OK();
  }

  Status CmdLabel(const std::string& attr) {
    if (attr.empty()) return Status::InvalidArgument("usage: label <attr>");
    label_attr_ = attr;
    std::cout << "display attribute: " << attr << "\n";
    return Status::OK();
  }

  Status CmdSelect(const std::string& rest) {
    auto [coll, text] = SplitFirst(rest);
    PredicateRef pred;
    if (env_.Has(text)) {
      AQUA_ASSIGN_OR_RETURN(pred, env_.Lookup(text));
    } else {
      AQUA_ASSIGN_OR_RETURN(pred, ParsePredicate(text));
    }
    if (db().HasList(coll)) {
      AQUA_ASSIGN_OR_RETURN(const List* list, db().GetList(coll));
      LintBanner(Q::ListSelect(Q::ScanList(coll), pred),
                 env_.Has(text) ? "" : text);
      AQUA_ASSIGN_OR_RETURN(List out, ListSelect(db().store(), *list, pred));
      std::cout << PrintList(out, Label()) << "\n";
      return Status::OK();
    }
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(coll));
    LintBanner(Q::TreeSelect(Q::ScanTree(coll), pred),
               env_.Has(text) ? "" : text);
    AQUA_ASSIGN_OR_RETURN(auto forest, TreeSelect(db().store(), *tree, pred));
    for (const Tree& piece : forest) {
      std::cout << PrintTree(piece, Label()) << "\n";
    }
    if (forest.empty()) std::cout << "(empty forest)\n";
    return Status::OK();
  }

  /// Builds the subselect plan for "<coll> <pattern>" (list or tree).
  Result<PlanRef> MakeSubSelectPlan(const std::string& rest) {
    auto [coll, pattern] = SplitFirst(rest);
    if (db().HasList(coll)) {
      AQUA_ASSIGN_OR_RETURN(AnchoredListPattern lp,
                            ParseListPattern(pattern, PatternOpts()));
      return Q::ListSubSelect(Q::ScanList(coll), lp);
    }
    AQUA_RETURN_IF_ERROR(db().GetTree(coll).status());
    AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                          ParseTreePattern(pattern, PatternOpts()));
    SplitOptions sopts;
    sopts.match.memoize = memoize_;
    return Q::TreeSubSelect(Q::ScanTree(coll), tp, sopts);
  }

  /// Builds the split plan for "<coll> <pattern>" (list or tree), with the
  /// standard <x, y, z> tuple combiner.
  Result<PlanRef> MakeSplitPlan(const std::string& rest) {
    auto [coll, pattern] = SplitFirst(rest);
    if (db().HasList(coll)) {
      AQUA_ASSIGN_OR_RETURN(AnchoredListPattern lp,
                            ParseListPattern(pattern, PatternOpts()));
      auto ltuple3 = [](const List& x, const List& y,
                        const std::vector<List>& z) -> Result<Datum> {
        std::vector<Datum> zs;
        for (const List& piece : z) zs.push_back(Datum::Of(piece));
        return Datum::Tuple(
            {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
      };
      return Q::ListSplit(Q::ScanList(coll), lp, ltuple3);
    }
    AQUA_RETURN_IF_ERROR(db().GetTree(coll).status());
    AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                          ParseTreePattern(pattern, PatternOpts()));
    auto tuple3 = [](const Tree& x, const Tree& y,
                     const std::vector<Tree>& z) -> Result<Datum> {
      std::vector<Datum> zs;
      for (const Tree& t : z) zs.push_back(Datum::Of(t));
      return Datum::Tuple(
          {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
    };
    SplitOptions sopts;
    sopts.match.memoize = memoize_;
    return Q::TreeSplit(Q::ScanTree(coll), tp, tuple3, sopts);
  }

  // subselect/split always run through the Executor (results are
  // byte-identical to the direct algebra calls; see the determinism tests),
  // so every shell query populates the plan catalogue and flight recorder.
  /// Strips a trailing ` &` (background marker) from `rest`; returns
  /// whether it was present.
  static bool StripBackground(std::string* rest) {
    if (rest->empty() || rest->back() != '&') return false;
    rest->pop_back();
    *rest = std::string(StripWhitespace(*rest));
    return true;
  }

  Status CmdSubSelect(std::string rest) {
    bool background = StripBackground(&rest);
    auto [coll, pattern] = SplitFirst(rest);
    (void)coll;
    AQUA_ASSIGN_OR_RETURN(PlanRef plan, MakeSubSelectPlan(rest));
    LintBanner(plan, pattern);
    if (background) return RunPlanBackground(plan);
    return RunPlan(plan);
  }

  Status CmdSplit(std::string rest) {
    bool background = StripBackground(&rest);
    auto [coll, pattern] = SplitFirst(rest);
    (void)coll;
    AQUA_ASSIGN_OR_RETURN(PlanRef plan, MakeSplitPlan(rest));
    LintBanner(plan, pattern);
    if (background) return RunPlanBackground(plan);
    return RunPlan(plan);
  }

  Status CmdAllAnc(const std::string& rest) {
    auto [coll, pattern] = SplitFirst(rest);
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(coll));
    AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                          ParseTreePattern(pattern, PatternOpts()));
    LintBanner(Q::TreeSubSelect(Q::ScanTree(coll), tp), pattern);
    AQUA_ASSIGN_OR_RETURN(
        Datum out,
        TreeAllAnc(db().store(), *tree, tp,
                   [](const Tree& x, const Tree& y) -> Result<Datum> {
                     return Datum::Tuple({Datum::Of(x), Datum::Of(y)});
                   }));
    std::cout << out.ToString(Label()) << "\n";
    return Status::OK();
  }

  Status CmdAllDesc(const std::string& rest) {
    auto [coll, pattern] = SplitFirst(rest);
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(coll));
    AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                          ParseTreePattern(pattern, PatternOpts()));
    LintBanner(Q::TreeSubSelect(Q::ScanTree(coll), tp), pattern);
    AQUA_ASSIGN_OR_RETURN(
        Datum out,
        TreeAllDesc(db().store(), *tree, tp,
                    [](const Tree& y,
                       const std::vector<Tree>& z) -> Result<Datum> {
                      std::vector<Datum> zs;
                      for (const Tree& t : z) zs.push_back(Datum::Of(t));
                      return Datum::Tuple(
                          {Datum::Of(y), Datum::Tuple(std::move(zs))});
                    }));
    std::cout << out.ToString(Label()) << "\n";
    return Status::OK();
  }

  Status CmdExplain(const std::string& rest) {
    auto [coll, pattern] = SplitFirst(rest);
    AQUA_RETURN_IF_ERROR(db().GetTree(coll).status());
    AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                          ParseTreePattern(pattern, PatternOpts()));
    PlanRef plan = Q::TreeSubSelect(Q::ScanTree(coll), tp);
    LintBanner(plan, pattern);
    std::cout << "plan:\n" << Explain(plan);
    Rewriter rewriter(&db());
    rewriter.AddDefaultRules();
    AQUA_ASSIGN_OR_RETURN(PlanRef optimized, rewriter.Optimize(plan));
    std::cout << "optimized:\n" << Explain(optimized);
    Executor exec(&db());
    exec.set_threads(threads_);
    AQUA_ASSIGN_OR_RETURN(Datum out, exec.Execute(optimized));
    std::cout << "result: " << out.ToString(Label()) << "\n";
    return Status::OK();
  }

  Status CmdApprox(const std::string& rest) {
    auto [coll, tail] = SplitFirst(rest);
    size_t sp = tail.rfind(' ');
    if (sp == std::string::npos) {
      return Status::InvalidArgument("usage: approx <coll> <literal> <k>");
    }
    std::string literal = tail.substr(0, sp);
    double k = std::strtod(tail.substr(sp + 1).c_str(), nullptr);
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(coll));
    AQUA_ASSIGN_OR_RETURN(Tree query, ParseTreeLiteral(literal, atom_));
    AQUA_ASSIGN_OR_RETURN(
        Datum out,
        TreeSubSelectApprox(db().store(), *tree, query, k,
                            AttrEditCosts(&db().store(), label_attr_)));
    std::cout << out.ToString(Label()) << "\n";
    return Status::OK();
  }

  Status CmdNearest(const std::string& rest) {
    auto [coll, tail] = SplitFirst(rest);
    size_t sp = tail.rfind(' ');
    if (sp == std::string::npos) {
      return Status::InvalidArgument("usage: nearest <coll> <literal> <n>");
    }
    std::string literal = tail.substr(0, sp);
    size_t n = std::strtoull(tail.substr(sp + 1).c_str(), nullptr, 10);
    AQUA_ASSIGN_OR_RETURN(const Tree* tree, db().GetTree(coll));
    AQUA_ASSIGN_OR_RETURN(Tree query, ParseTreeLiteral(literal, atom_));
    AQUA_ASSIGN_OR_RETURN(
        auto ranked,
        NearestSubtrees(db().store(), *tree, query, n,
                        AttrEditCosts(&db().store(), label_attr_)));
    for (const auto& scored : ranked) {
      std::cout << scored.distance << "  "
                << PrintTree(scored.subtree, Label()) << "\n";
    }
    return Status::OK();
  }

  Status CmdObsMetrics(const std::string& arg) {
    if (arg == "reset") {
      obs::Registry::Global().ResetAll();
      std::cout << "metrics reset\n";
      return Status::OK();
    }
    obs::Snapshot snap = obs::Registry::Global().Snap();
    if (arg == "json") {
      std::cout << snap.ToJson() << "\n";
    } else if (arg.empty()) {
      std::cout << snap.ToText();
    } else {
      return Status::InvalidArgument("usage: \\metrics [json|reset]");
    }
    return Status::OK();
  }

  Status CmdPlans(const std::string& rest) {
    const Status usage = Status::InvalidArgument(
        "usage: \\plans [n] [by total|calls|p95] | <fingerprint> | json | "
        "reset | save|load [path]");
    obs::StatsWarehouse& plans = obs::StatsWarehouse::Global();
    auto [arg, tail] = SplitFirst(rest);
    if (arg == "save") {
      AQUA_RETURN_IF_ERROR(obs::SaveStats(tail));
      std::cout << "plan catalogue saved\n";
      return Status::OK();
    }
    if (arg == "load") {
      AQUA_RETURN_IF_ERROR(obs::LoadStats(tail));
      std::cout << "plan catalogue loaded (" << plans.size() << " plans)\n";
      return Status::OK();
    }
    if (arg == "json" && tail.empty()) {
      std::cout << plans.ToJson() << "\n";
      return Status::OK();
    }
    if (arg == "reset" && tail.empty()) {
      plans.Reset();
      std::cout << "plan catalogue reset\n";
      return Status::OK();
    }
    // Fingerprints always print as 16 hex digits; a shorter number is n.
    if (arg.size() == 16 && tail.empty()) {
      char* end = nullptr;
      uint64_t fp = std::strtoull(arg.c_str(), &end, 16);
      if (*end != '\0') return usage;
      return ShowPlan(plans.Row(fp));
    }

    std::vector<std::string> words;
    std::istringstream in(rest);
    for (std::string w; in >> w;) words.push_back(w);
    size_t next = 0;
    size_t top_n = 10;
    if (next < words.size() && words[next] != "by") {
      char* end = nullptr;
      top_n = std::strtoul(words[next].c_str(), &end, 10);
      if (end == words[next].c_str() || *end != '\0' || top_n == 0) {
        return usage;
      }
      ++next;
    }
    std::string by = "total";
    if (next < words.size()) {
      if (words[next] != "by" || next + 2 != words.size()) return usage;
      by = words[next + 1];
    }
    if (by != "total" && by != "calls" && by != "p95") return usage;

    std::vector<obs::PlanRow> rows = plans.Rows();  // by total time
    if (rows.empty()) {
      std::cout << "plan catalogue empty (run some queries first)\n";
      return Status::OK();
    }
    if (by != "total") {
      auto key = [&by](const obs::PlanRow& r) {
        return by == "calls" ? static_cast<double>(r.calls) : r.p95_ns();
      };
      std::stable_sort(rows.begin(), rows.end(),
                       [&key](const obs::PlanRow& a, const obs::PlanRow& b) {
                         return key(a) > key(b);
                       });
    }
    if (rows.size() > top_n) rows.resize(top_n);
    std::cout << "plans by " << by << ":\n" << PlanTable(rows);
    return Status::OK();
  }

  static std::string Fmt(const char* fmt, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
  }

  static std::string Ms(double ns) { return Fmt("%.3f", ns / 1e6); }

  /// The digest columns of `rows`, one line each.
  static std::string PlanTable(const std::vector<obs::PlanRow>& rows) {
    TextTable table({"fingerprint", "calls", "total_ms", "mean_ms", "p50_ms",
                     "p95_ms", "p99_ms", "max_ms", "peak_kb", "cxl", "dl",
                     "wr", "plan"});
    for (const obs::PlanRow& r : rows) {
      table.AddRow({obs::FingerprintHex(r.fingerprint),
                    std::to_string(r.calls),
                    Ms(static_cast<double>(r.total_ns)), Ms(r.mean_ns()),
                    Ms(r.p50_ns()), Ms(r.p95_ns()), Ms(r.p99_ns()),
                    Ms(static_cast<double>(r.max_ns)),
                    std::to_string(r.peak_mem_bytes / 1024),
                    std::to_string(r.cancelled),
                    std::to_string(r.deadline_exceeded),
                    std::to_string(r.store_commits), r.OneLineText()});
    }
    return table.ToString();
  }

  /// One catalogue row: its latency digest, plan text and per-op records.
  Status ShowPlan(const obs::PlanRow& r) {
    if (r.calls == 0 && r.ops.empty()) {
      std::cout << "no plan " << obs::FingerprintHex(r.fingerprint)
                << " in the catalogue\n";
      return Status::OK();
    }
    std::cout << PlanTable({r}) << r.text;
    if (r.ops.empty()) return Status::OK();
    TextTable table({"path", "op", "calls", "in_rows", "out_rows", "sel",
                     "cand/probe", "wall_ms"});
    for (const obs::OpStatsRow& op : r.ops) {
      table.AddRow({op.path, op.op_name, std::to_string(op.calls),
                    Fmt("%.1f", op.in_rows), Fmt("%.1f", op.out_rows),
                    Fmt("%.3f", op.selectivity),
                    op.candidates_per_probe < 0
                        ? "-"
                        : Fmt("%.1f", op.candidates_per_probe),
                    Ms(op.wall_ns)});
    }
    std::cout << table.ToString();
    return Status::OK();
  }

  /// Runs the static-analysis pass on `plan` and prints one line per
  /// warning/error finding. Called before executing every query command
  /// (the on-by-default banner; `\lint off` or AQUA_LINT=off silences it;
  /// notes are reserved for the explicit \lint command to keep the banner
  /// quiet on every uncertified apply).
  void LintBanner(const PlanRef& plan, const std::string& source) {
    if (!lint_banner_) return;
    if (lint::EnforcementLevel() == lint::Level::kOff) return;
    lint::PlanLintOptions opts;
    opts.pattern_source = source;
    for (const lint::Diagnostic& d : lint::LintPlan(db(), plan, opts)) {
      if (d.severity == lint::Severity::kNote) continue;
      std::cout << "lint: " << lint::FormatDiagnostic(d) << "\n";
    }
  }

  Status CmdLint(const std::string& rest) {
    if (rest == "on" || rest == "off") {
      lint_banner_ = rest == "on";
      std::cout << "lint banner " << rest << "\n";
      return Status::OK();
    }
    if (rest == "level" || StartsWith(rest, "level ")) {
      std::string arg = rest == "level" ? "" : rest.substr(6);
      if (!arg.empty()) {
        lint::Level level;
        if (!lint::ParseLevel(arg, &level)) {
          return Status::InvalidArgument(
              "usage: \\lint level [off|warn|error]");
        }
        lint::set_enforcement_level(level);
      }
      std::cout << "lint level "
                << lint::LevelToString(lint::EnforcementLevel()) << "\n";
      return Status::OK();
    }
    auto [coll, pattern] = SplitFirst(rest);
    if (coll.empty() || pattern.empty()) {
      return Status::InvalidArgument(
          "usage: \\lint <coll> <pattern>  or  \\lint on|off  or  "
          "\\lint level [off|warn|error]");
    }
    PlanRef plan;
    if (db().HasList(coll)) {
      AQUA_ASSIGN_OR_RETURN(AnchoredListPattern lp,
                            ParseListPattern(pattern, PatternOpts()));
      plan = Q::ListSubSelect(Q::ScanList(coll), lp);
    } else {
      AQUA_ASSIGN_OR_RETURN(TreePatternRef tp,
                            ParseTreePattern(pattern, PatternOpts()));
      plan = Q::TreeSubSelect(Q::ScanTree(coll), tp);
    }
    lint::PlanLintOptions opts;
    opts.pattern_source = pattern;
    std::vector<lint::Diagnostic> diags = lint::LintPlan(db(), plan, opts);
    if (diags.empty()) {
      std::cout << "no diagnostics\n";
    } else {
      std::cout << lint::RenderDiagnostics(diags);
    }
    // The inferred facts behind those diagnostics: per-node cardinality and
    // kind flow, plus the effect summary that decides parallel fan-out.
    std::cout << "facts:\n" << lint::RenderFacts(db(), plan);
    std::cout << lint::AnalyzeEffects(plan).ToString() << "\n";
    return Status::OK();
  }

  Status CmdThreads(const std::string& arg) {
    if (!arg.empty()) {
      threads_ = std::strtoull(arg.c_str(), nullptr, 10);
    }
    Executor probe(&db());
    probe.set_threads(threads_);
    std::cout << "threads: " << probe.threads()
              << (threads_ == 0 ? " (default)" : "") << "\n";
    return Status::OK();
  }

  Status CmdTrace(const std::string& arg) {
    if (arg == "on") {
      trace_on_ = true;
    } else if (arg == "off") {
      trace_on_ = false;
    } else {
      return Status::InvalidArgument("usage: \\trace on|off");
    }
    std::cout << "tracing " << (trace_on_ ? "on" : "off") << "\n";
    return Status::OK();
  }

  /// Executes `plan` through the pipeline and prints the result; with
  /// `\trace on` the span-tree report and the query's counters follow.
  Status RunPlan(const PlanRef& plan) {
    Executor exec(&db());
    exec.set_threads(threads_);
    exec.set_trace_enabled(trace_on_);
    exec.set_timeout_ms(timeout_ms_);
    AQUA_ASSIGN_OR_RETURN(Datum out, exec.Execute(plan));
    std::cout << out.ToString(Label()) << "\n";
    if (trace_on_) {
      std::cout << exec.TraceReport() << exec.last_counters().ToText();
    }
    return Status::OK();
  }

  /// Launches `plan` on a detached worker thread; the query registers
  /// itself in the live task table, so `\tasks` shows it and `\kill <id>`
  /// cancels it. Completion prints asynchronously.
  Status RunPlanBackground(PlanRef plan) {
    size_t threads = threads_;
    uint64_t timeout_ms = timeout_ms_;
    Database* database = &db();
    bg_threads_.emplace_back([database, plan = std::move(plan), threads,
                              timeout_ms]() {
      Executor exec(database);
      exec.set_threads(threads);
      exec.set_timeout_ms(timeout_ms);
      obs::Span timer(nullptr, "");
      Result<Datum> out = exec.Execute(plan);
      double ms = static_cast<double>(timer.ElapsedNs()) / 1e6;
      std::ostringstream os;
      os << "[bg q" << exec.stats().query_id << "] ";
      if (out.ok()) {
        os << "done in " << ms << " ms\n";
      } else {
        os << "error: " << out.status() << "\n";
      }
      std::cout << os.str() << std::flush;
    });
    std::cout << "running in background (watch with \\tasks, cancel with "
                 "\\kill <id>)\n";
    return Status::OK();
  }

  void JoinBackground() {
    if (bg_threads_.empty()) return;
    // A background query with no deadline would block exit forever; keep
    // killing whatever is in flight until the joins complete (a sweep can
    // race a just-launched query that has not registered yet).
    std::atomic<bool> joined{false};
    std::thread reaper([&joined] {
      while (!joined.load()) {
        for (const obs::TaskRow& row :
             obs::TaskRegistry::Global().Snapshot()) {
          (void)obs::TaskRegistry::Global().Kill(
              row.id, "was cancelled at shell exit");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    for (std::thread& t : bg_threads_) {
      if (t.joinable()) t.join();
    }
    bg_threads_.clear();
    joined.store(true);
    reaper.join();
  }

  Status CmdFlight(const std::string& arg) {
    obs::FlightRecorder& rec = obs::FlightRecorder::Global();
    if (arg == "clear") {
      rec.Clear();
      std::cout << "flight recorder cleared\n";
    } else if (arg == "json") {
      std::cout << rec.ToJson() << "\n";
    } else if (arg.empty()) {
      std::cout << rec.ToText();
    } else {
      return Status::InvalidArgument("usage: \\flight [json|clear]");
    }
    return Status::OK();
  }

  Status CmdServe(const std::string& arg) {
    if (arg == "off") {
      if (!server_.running()) {
        std::cout << "metrics server not running\n";
        return Status::OK();
      }
      server_.Stop();
      std::cout << "metrics server stopped\n";
      return Status::OK();
    }
    if (arg.empty()) {
      if (server_.running()) {
        std::cout << "serving on http://127.0.0.1:" << server_.port()
                  << "/metrics\n";
        return Status::OK();
      }
      return Status::InvalidArgument("usage: \\serve <port>|off");
    }
    if (server_.running()) {
      return Status::InvalidArgument(
          "already serving on port " + std::to_string(server_.port()) +
          " (`\\serve off` first)");
    }
    uint16_t port =
        static_cast<uint16_t>(std::strtoul(arg.c_str(), nullptr, 10));
    AQUA_RETURN_IF_ERROR(server_.Start(port));
    std::cout << "serving on http://127.0.0.1:" << server_.port()
              << "/metrics (also /plans /flight /tasks /healthz)\n";
    return Status::OK();
  }

  Status CmdSlowLog(const std::string& rest) {
    obs::FlightRecorder& rec = obs::FlightRecorder::Global();
    if (rest.empty()) {
      uint64_t ns = rec.slow_query_threshold_ns();
      if (ns == 0) {
        std::cout << "slow-query log off\n";
      } else {
        std::cout << "slow-query threshold " << static_cast<double>(ns) / 1e6
                  << " ms -> " << rec.slow_query_log_path() << " ("
                  << rec.slow_queries_logged() << " logged)\n";
      }
      return Status::OK();
    }
    auto [ms_str, path] = SplitFirst(rest);
    char* end = nullptr;
    double ms = std::strtod(ms_str.c_str(), &end);
    if (end == ms_str.c_str() || ms < 0) {
      return Status::InvalidArgument("usage: \\slowlog <ms> [path]");
    }
    rec.set_slow_query_threshold_ns(static_cast<uint64_t>(ms * 1e6));
    if (!path.empty()) rec.set_slow_query_log_path(path);
    if (ms == 0) {
      std::cout << "slow-query log off\n";
    } else {
      std::cout << "logging queries >= " << ms << " ms to "
                << rec.slow_query_log_path() << "\n";
    }
    return Status::OK();
  }

  Status CmdProfile(const std::string& rest) {
    auto [n_str, query] = SplitFirst(rest);
    size_t n = std::strtoull(n_str.c_str(), nullptr, 10);
    if (n == 0 || query.empty()) {
      return Status::InvalidArgument(
          "usage: \\profile <n> <subselect|split query>");
    }
    auto [qcmd, qrest] = SplitFirst(query);
    PlanRef plan;
    if (qcmd == "subselect") {
      AQUA_ASSIGN_OR_RETURN(plan, MakeSubSelectPlan(qrest));
    } else if (qcmd == "split") {
      AQUA_ASSIGN_OR_RETURN(plan, MakeSplitPlan(qrest));
    } else {
      return Status::InvalidArgument(
          "\\profile runs `subselect` or `split` queries");
    }
    Executor exec(&db());
    exec.set_threads(threads_);
    std::vector<uint64_t> samples;
    samples.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      obs::Span timer(nullptr, "");
      AQUA_RETURN_IF_ERROR(exec.Execute(plan).status());
      samples.push_back(timer.ElapsedNs());
    }
    std::sort(samples.begin(), samples.end());
    auto quantile = [&](double q) {
      size_t idx = static_cast<size_t>(q * static_cast<double>(n));
      return samples[std::min(idx, n - 1)];
    };
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%zu runs: min %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max "
                  "%.3f ms\n",
                  n, static_cast<double>(samples.front()) / 1e6,
                  static_cast<double>(quantile(0.50)) / 1e6,
                  static_cast<double>(quantile(0.95)) / 1e6,
                  static_cast<double>(quantile(0.99)) / 1e6,
                  static_cast<double>(samples.back()) / 1e6);
    std::cout << buf;
    obs::PlanRow row =
        obs::StatsWarehouse::Global().Row(obs::FingerprintPlan(plan));
    if (row.calls > 0) std::cout << PlanTable({row});
    return Status::OK();
  }

  Status CmdTasks(const std::string& arg) {
    obs::TaskRegistry& reg = obs::TaskRegistry::Global();
    if (arg == "json") {
      std::cout << reg.ToJson() << "\n";
    } else if (arg.empty()) {
      std::cout << reg.ToText();
    } else {
      return Status::InvalidArgument("usage: \\tasks [json]");
    }
    return Status::OK();
  }

  Status CmdSnapshot(const std::string& arg) {
    if (!arg.empty()) {
      return Status::InvalidArgument("usage: \\snapshot");
    }
    const ObjectStore& store = db().store();
    std::cout << "epoch:           " << store.epoch() << "\n"
              << "versions live:   " << store.versions_live() << "\n"
              << "snapshot pins:   " << store.snapshot_pins() << "\n"
              << "cow copies:      " << store.cow_copies() << "\n"
              << "retained bytes:  " << store.retained_bytes() << "\n";
    std::vector<obs::TaskRow> tasks = obs::TaskRegistry::Global().Snapshot();
    if (tasks.empty()) {
      std::cout << "(no queries pinning a snapshot)\n";
      return Status::OK();
    }
    std::cout << "pinned by:\n";
    for (const obs::TaskRow& t : tasks) {
      std::cout << "  task " << t.id << "  epoch " << t.pinned_epoch << "  "
                << t.plan << "\n";
    }
    return Status::OK();
  }

  Status CmdKill(const std::string& arg) {
    char* end = nullptr;
    uint64_t id = std::strtoull(arg.c_str(), &end, 10);
    if (arg.empty() || end == arg.c_str()) {
      return Status::InvalidArgument("usage: \\kill <task id>");
    }
    AQUA_RETURN_IF_ERROR(obs::TaskRegistry::Global().Kill(id));
    std::cout << "task " << id << " cancelled\n";
    return Status::OK();
  }

  Status CmdTimeout(const std::string& arg) {
    if (!arg.empty()) {
      timeout_ms_ = std::strtoull(arg.c_str(), nullptr, 10);
    }
    if (timeout_ms_ == 0) {
      std::cout << "timeout: env default (AQUA_QUERY_TIMEOUT_MS)\n";
    } else {
      std::cout << "timeout: " << timeout_ms_ << " ms\n";
    }
    return Status::OK();
  }

  Status CmdMemoize(const std::string& arg) {
    if (arg == "on") {
      memoize_ = true;
    } else if (arg == "off") {
      memoize_ = false;
    } else if (!arg.empty()) {
      return Status::InvalidArgument("usage: \\memoize on|off");
    }
    std::cout << "tree-match memoization " << (memoize_ ? "on" : "off")
              << "\n";
    return Status::OK();
  }

  Status CmdLoad(const std::string& path) {
    auto fresh = std::make_unique<Database>();
    AQUA_RETURN_IF_ERROR(LoadDatabaseFromFile(path, fresh.get()));
    db_holder_ = std::move(fresh);
    // Literal atoms must intern into the loaded store from now on.
    if (!db().store().schema().TypeIdOf("Item").ok()) {
      AQUA_RETURN_IF_ERROR(RegisterItemType(db().store()));
    }
    atom_ = MakeInterningAtomFn(&db().store(), "Item", "name");
    std::cout << "loaded " << path << " ("
              << db_holder_->store().num_objects() << " objects)\n";
    return Status::OK();
  }

  // The active database: either the initial one or the last loaded one.
  Database& db() { return db_holder_ ? *db_holder_ : db_; }

  Database db_;
  std::unique_ptr<Database> db_holder_;
  PredicateEnv env_;
  AtomFn atom_;
  std::string label_attr_;
  bool trace_on_ = false;
  bool lint_banner_ = true;
  bool memoize_ = true;
  uint64_t timeout_ms_ = 0;
  std::vector<std::thread> bg_threads_;
  obs::MetricsHttpServer server_;

 public:
  /// 0 = executor default (`AQUA_THREADS` or hardware concurrency).
  void set_threads(size_t n) { threads_ = n; }

 private:
  size_t threads_ = 0;
};

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) {
  bool interactive = isatty(0);
  aqua::Shell shell;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      shell.set_threads(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      shell.set_threads(
          std::strtoull(arg.c_str() + sizeof("--threads=") - 1, nullptr, 10));
    } else {
      std::cerr << "usage: aqua_shell [--threads N]\n";
      return 2;
    }
  }
  return shell.Run(std::cin, interactive);
}
