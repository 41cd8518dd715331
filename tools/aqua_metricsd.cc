// aqua_metricsd — standalone OpenMetrics scrape endpoint over a demo AQUA
// workload.
//
//   aqua_metricsd [--port N] [--queries N]   serve /metrics until SIGINT
//   aqua_metricsd --dump [--queries N]       print the exposition and exit
//   aqua_metricsd --check <file|->           validate an exposition, exit 0/1
//
// Serve mode registers synthetic collections (a random genealogy and a
// random song), runs a demo query mix through the executor so the registry,
// plan catalogue, and flight recorder are populated, then serves
//
//   http://127.0.0.1:<port>/metrics   (plus /plans /flight /tasks /healthz)
//
// When AQUA_STATS_FILE is set, the plan catalogue is loaded from it at
// startup (warm cost model from the first query) and saved back on clean
// shutdown.
//
// `--check` is the OpenMetrics conformance checker CI runs against the
// scraped output: HELP/TYPE before samples, `_total` counter suffixes,
// monotone histogram buckets ending at `+Inf` == `_count`, final `# EOF`.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "aqua.h"
#include "obs/tasks.h"
#include "query/builder.h"

namespace aqua {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

/// Registers the demo collections and runs `queries` executions of a small
/// query mix (tree subselect, tree split, list subselect) so every
/// observability surface has data before the first scrape.
Status RunDemoWorkload(Database& db, size_t queries) {
  AQUA_RETURN_IF_ERROR(RegisterPersonType(db.store()));
  FamilyTreeSpec fspec;
  fspec.num_people = 2000;
  fspec.brazil_fraction = 0.15;
  AQUA_ASSIGN_OR_RETURN(Tree family, MakeFamilyTree(db.store(), fspec));
  AQUA_RETURN_IF_ERROR(db.RegisterTree("family", std::move(family)));

  AQUA_RETURN_IF_ERROR(RegisterNoteType(db.store()));
  SongSpec sspec;
  sspec.num_notes = 4000;
  AQUA_ASSIGN_OR_RETURN(List song, MakeSong(db.store(), sspec));
  AQUA_RETURN_IF_ERROR(db.RegisterList("song", std::move(song)));

  PredicateEnv env;
  env.Bind("Brazil",
           Predicate::AttrEquals("citizen", Value::String("Brazil")));
  env.Bind("USA", Predicate::AttrEquals("citizen", Value::String("USA")));
  env.Bind("A", Predicate::AttrEquals("pitch", Value::String("A")));
  env.Bind("F", Predicate::AttrEquals("pitch", Value::String("F")));
  PatternParserOptions popts;
  popts.env = &env;
  AQUA_ASSIGN_OR_RETURN(TreePatternRef brazil_usa,
                        ParseTreePattern("Brazil(!?* USA !?*)", popts));
  AQUA_ASSIGN_OR_RETURN(AnchoredListPattern melody,
                        ParseListPattern("A ? ? F", popts));

  auto tuple3 = [](const Tree& x, const Tree& y,
                   const std::vector<Tree>& z) -> Result<Datum> {
    std::vector<Datum> zs;
    for (const Tree& t : z) zs.push_back(Datum::Of(t));
    return Datum::Tuple(
        {Datum::Of(x), Datum::Of(y), Datum::Tuple(std::move(zs))});
  };
  PlanRef plans[] = {
      Q::TreeSubSelect(Q::ScanTree("family"), brazil_usa),
      Q::TreeSplit(Q::ScanTree("family"), brazil_usa, tuple3),
      Q::ListSubSelect(Q::ScanList("song"), melody),
  };

  Executor exec(&db);
  for (size_t i = 0; i < queries; ++i) {
    AQUA_RETURN_IF_ERROR(
        exec.Execute(plans[i % (sizeof(plans) / sizeof(plans[0]))]).status());
  }
  return Status::OK();
}

int CheckFile(const std::string& path) {
  std::string text;
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    text = buf.str();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "aqua_metricsd: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  Status st = obs::CheckOpenMetrics(text);
  if (!st.ok()) {
    std::cerr << "aqua_metricsd: " << st << "\n";
    return 1;
  }
  std::cout << "openmetrics ok (" << text.size() << " bytes)\n";
  return 0;
}

int Main(int argc, char** argv) {
  uint16_t port = 9464;
  size_t queries = 32;
  bool dump = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      return CheckFile(argv[++i]);
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--queries" && i + 1 < argc) {
      queries = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--dump") {
      dump = true;
    } else {
      std::cerr << "usage: aqua_metricsd [--port N] [--queries N] [--dump] | "
                   "--check <file|->\n";
      return 2;
    }
  }

  // Warm the plan catalogue across runs: load is best-effort (a missing
  // file just means a cold start), save happens on clean shutdown below.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const bool stats_file_set = std::getenv("AQUA_STATS_FILE") != nullptr;
  if (stats_file_set) {
    Status loaded = obs::LoadStats();
    if (loaded.ok()) {
      std::cout << "aqua_metricsd: loaded "
                << obs::StatsWarehouse::Global().size() << " plans\n";
    } else if (!loaded.IsNotFound()) {
      std::cerr << "aqua_metricsd: stats load: " << loaded << "\n";
    }
  }

  Database db;
  Status st = RunDemoWorkload(db, queries);
  if (!st.ok()) {
    std::cerr << "aqua_metricsd: demo workload failed: " << st << "\n";
    return 1;
  }

  if (dump) {
    obs::OpenMetricsOptions opts;
    opts.plans = &obs::StatsWarehouse::Global();
    std::cout << obs::ToOpenMetrics(obs::Registry::Global().Snap(), opts);
    return 0;
  }

  obs::MetricsHttpServer server;
  st = server.Start(port);
  if (!st.ok()) {
    std::cerr << "aqua_metricsd: " << st << "\n";
    return 1;
  }
  std::cout << "aqua_metricsd serving http://127.0.0.1:" << server.port()
            << "/metrics (" << queries << " demo queries, "
            << obs::StatsWarehouse::Global().size() << " plans)\n"
            << std::flush;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // Watchdog: sweep the live task table so deadlines and memory limits hold
  // even when a query's own workers are wedged between checkpoints.
  std::thread watchdog([] {
    while (!g_stop.load()) {
      obs::TaskRegistry::Global().EnforceLimits();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  watchdog.join();
  server.Stop();
  if (stats_file_set) {
    Status saved = obs::SaveStats();
    if (!saved.ok()) {
      std::cerr << "aqua_metricsd: stats save: " << saved << "\n";
    }
  }
  std::cout << "aqua_metricsd stopped\n";
  return 0;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::Main(argc, argv); }
