// The benchmark workloads: their databases and their seeded request
// orders. Why each exists is in README.md.
#include <algorithm>
#include <random>

#include "perfbench.h"
#include "pattern/predicate.h"
#include "workload/generators.h"

namespace aqua::perfbench {

namespace {

const char* const kCountries[] = {"Brazil", "USA",   "France",
                                  "Japan",  "India", "Kenya"};
const char* const kRareCountries[] = {"France", "Japan", "India", "Kenya"};
const char* const kEyes[] = {"blue", "green", "brown", "hazel"};
const char* const kEducation[] = {"HS", "BA", "BS", "MS", "MD", "PhD"};
const char* const kPitches[] = {"A", "B", "C", "D", "E", "F", "G"};

template <typename T, size_t N>
const T& Pick(std::mt19937_64& rng, const T (&options)[N]) {
  return options[rng() % N];
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string Eq(const std::string& attr, const std::string& value) {
  return "{" + attr + " == " + Quote(value) + "}";
}

std::string Eq(const std::string& attr, int64_t value) {
  return "{" + attr + " == " + std::to_string(value) + "}";
}

std::vector<std::string> Labels(size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back("t" + std::to_string(i));
  return out;
}

// Sizes of every collection and request cycle, per scale.
struct Sizes {
  size_t point_families, point_songs, doc_people, doc_notes, point_rounds;
  size_t anchored_nodes, anchored_labels, anchored_list, anchored_cycle;
  size_t forest_families, family_people, scan_song_notes, scan_draws;
  size_t batch_song_notes, batch_requests;
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kTiny) {
    return {.point_families = 16, .point_songs = 8, .doc_people = 30,
            .doc_notes = 30, .point_rounds = 2,
            .anchored_nodes = 2000, .anchored_labels = 80,
            .anchored_list = 2000, .anchored_cycle = 8,
            .forest_families = 4, .family_people = 40,
            .scan_song_notes = 2000, .scan_draws = 1,
            .batch_song_notes = 500, .batch_requests = 2};
  }
  return {.point_families = 640, .point_songs = 360, .doc_people = 30,
          .doc_notes = 30, .point_rounds = 4,
          .anchored_nodes = 50000, .anchored_labels = 2000,
          .anchored_list = 50000, .anchored_cycle = 64,
          .forest_families = 48, .family_people = 340,
          .scan_song_notes = 100000, .scan_draws = 3,
          .batch_song_notes = 16000, .batch_requests = 8};
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng();
}

// ---------------------------------------------------------------- point

std::string FamilyDoc(size_t i) { return "f" + std::to_string(i); }
std::string SongDoc(size_t i) { return "s" + std::to_string(i); }

Status BuildPoint(const Sizes& sz, uint64_t seed, Database* db) {
  for (size_t i = 0; i < sz.point_families; ++i) {
    FamilyTreeSpec spec;
    spec.num_people = sz.doc_people;
    spec.brazil_fraction = 0.15;
    spec.seed = Mix(seed, i);
    AQUA_ASSIGN_OR_RETURN(Tree t, MakeFamilyTree(db->store(), spec));
    AQUA_RETURN_IF_ERROR(db->RegisterTree(FamilyDoc(i), std::move(t)));
  }
  for (size_t i = 0; i < sz.point_songs; ++i) {
    SongSpec spec;
    spec.num_notes = sz.doc_notes;
    spec.seed = Mix(seed, 100000 + i);
    AQUA_ASSIGN_OR_RETURN(List l, MakeSong(db->store(), spec));
    AQUA_RETURN_IF_ERROR(db->RegisterList(SongDoc(i), std::move(l)));
  }
  return Status::OK();
}

// Every document has one read template (so the number of distinct plan
// fingerprints stays far below the 4096-row digest and stats caps), and
// each round reads every document once, in a seeded order, with fresh
// constants. One request in eight is a store-writing apply on `age`,
// which no read pattern mentions.
std::vector<Request> PointCycle(const Sizes& sz, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 1));
  const size_t docs = sz.point_families + sz.point_songs;
  std::vector<size_t> order(docs);
  std::vector<Request> cycle;
  size_t reads = 0;
  for (size_t round = 0; round < sz.point_rounds; ++round) {
    for (size_t i = 0; i < docs; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (size_t d : order) {
      Request r;
      if (d < sz.point_families) {
        r.shape = Shape::kTreeScan;
        r.collection = FamilyDoc(d);
        const size_t tmpl = d % 3;
        std::string person =
            "P" + std::to_string(rng() % sz.doc_people);
        if (tmpl == 0) {
          r.texts = {Eq("citizen", Pick(rng, kCountries)) + "(!?* " +
                     Eq("citizen", Pick(rng, kCountries)) + " !?*)"};
        } else if (tmpl == 1) {
          r.texts = {Eq("eyes", Pick(rng, kEyes)) + "(?* " +
                     Eq("education", Pick(rng, kEducation)) + " ?*)"};
        } else {
          r.texts = {Eq("name", person) + "(?* " +
                     Eq("eyes", Pick(rng, kEyes)) + " ?*)"};
        }
        r.tmpl = "p" + std::to_string(tmpl);
      } else {
        const size_t s = d - sz.point_families;
        r.shape = Shape::kListScan;
        r.collection = SongDoc(s);
        const size_t tmpl = s % 2;
        if (tmpl == 0) {
          r.texts = {Eq("pitch", Pick(rng, kPitches)) + " " +
                     Eq("pitch", Pick(rng, kPitches))};
        } else {
          r.texts = {Eq("pitch", Pick(rng, kPitches)) + " ? {duration > " +
                     std::to_string(rng() % 8) + "}"};
        }
        r.tmpl = "p" + std::to_string(3 + tmpl);
      }
      cycle.push_back(std::move(r));
      if (++reads % 7 == 0) {
        Request w;
        w.shape = Shape::kWrite;
        w.collection = FamilyDoc(rng() % sz.point_families);
        w.tmpl = "w";
        w.age = static_cast<int64_t>(rng() % 90 + 5);
        cycle.push_back(std::move(w));
      }
    }
  }
  return cycle;
}

// ------------------------------------------------------------- anchored

Status BuildAnchored(const Sizes& sz, uint64_t seed, Database* db) {
  RandomTreeSpec spec;
  spec.num_nodes = sz.anchored_nodes;
  spec.labels = Labels(sz.anchored_labels);
  spec.seed = Mix(seed, 2);
  AQUA_ASSIGN_OR_RETURN(Tree t, MakeRandomTree(db->store(), spec));
  AQUA_RETURN_IF_ERROR(db->RegisterTree("t", std::move(t)));
  AQUA_ASSIGN_OR_RETURN(List l, MakeRandomList(db->store(), sz.anchored_list,
                                               spec.labels, Mix(seed, 3)));
  AQUA_RETURN_IF_ERROR(db->RegisterList("l", std::move(l)));
  AQUA_RETURN_IF_ERROR(db->CreateIndex("t", "name"));
  return db->CreateIndex("l", "name");
}

// Selective patterns anchored on an indexed `name` (about
// nodes / labels candidates each), with seeded labels. Three of every
// four requests are the section 4 split query over the tree; the fourth
// is a two-anchor list pattern. One template per collection keeps each
// kind a single cluster of requests, and list requests cost a fifth of
// tree requests, so keeping them a quarter of the anchored mix puts the
// workload's p95 inside the tree cluster instead of on a gap.
std::vector<Request> AnchoredCycle(const Sizes& sz, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 4));
  auto label = [&] {
    return Eq("name", "t" + std::to_string(rng() % sz.anchored_labels));
  };
  std::vector<Request> cycle;
  for (size_t i = 0; i < sz.anchored_cycle; ++i) {
    Request r;
    if (i % 4 < 3) {
      r.shape = Shape::kTreeScan;
      r.collection = "t";
      r.texts = {label() + "(?* " + label() + " ?*)"};
      r.tmpl = "a0";
    } else {
      r.shape = Shape::kListScan;
      r.collection = "l";
      r.texts = {label() + " " + label()};
      r.tmpl = "a1";
    }
    cycle.push_back(std::move(r));
  }
  return cycle;
}

// ----------------------------------------------------- scan and batch

// 48 family trees under a sentinel root that the forest select drops,
// the 100k-note song the scan templates search, and the shorter tune the
// batch motifs search (short enough that a batch request costs about what
// a scan request costs).
Status BuildScanBatch(const Sizes& sz, uint64_t seed, Database* db) {
  AQUA_RETURN_IF_ERROR(RegisterPersonType(db->store()));
  std::vector<Tree> families;
  for (size_t i = 0; i < sz.forest_families; ++i) {
    FamilyTreeSpec spec;
    spec.num_people = sz.family_people;
    spec.brazil_fraction = 0.15;
    spec.seed = Mix(seed, 1000 + i);
    AQUA_ASSIGN_OR_RETURN(Tree t, MakeFamilyTree(db->store(), spec));
    families.push_back(std::move(t));
  }
  AQUA_ASSIGN_OR_RETURN(
      Oid sentinel,
      db->store().Create("Person", {{"name", Value::String("forest")},
                                    {"citizen", Value::String("none")},
                                    {"eyes", Value::String("none")},
                                    {"education", Value::String("none")},
                                    {"age", Value::Int(0)}}));
  AQUA_RETURN_IF_ERROR(db->RegisterTree(
      "family", Tree::Node(NodePayload::Cell(sentinel), std::move(families))));
  SongSpec spec;
  spec.num_notes = sz.scan_song_notes;
  spec.seed = Mix(seed, 5);
  AQUA_ASSIGN_OR_RETURN(List song, MakeSong(db->store(), spec));
  AQUA_RETURN_IF_ERROR(db->RegisterList("song", std::move(song)));
  spec.num_notes = sz.batch_song_notes;
  spec.seed = Mix(seed, 8);
  AQUA_ASSIGN_OR_RETURN(List tune, MakeSong(db->store(), spec));
  return db->RegisterList("tune", std::move(tune));
}

// Eight templates — four tree patterns over the forest (one a Kleene
// closure) and four list patterns over the song (two with closures) —
// each drawn `scan_draws` times with seeded constants. The templates are
// chosen to cost about the same (15-30 ms at 2 threads on a 4-core
// host), so the latency percentiles fall inside one dense cluster.
std::vector<Request> ScanCycle(const Sizes& sz, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 6));
  std::vector<Request> cycle;
  for (size_t draw = 0; draw < sz.scan_draws; ++draw) {
    for (size_t tmpl = 0; tmpl < 8; ++tmpl) {
      Request r;
      std::string p1 = Pick(rng, kPitches), p2 = Pick(rng, kPitches),
                  p3 = Pick(rng, kPitches);
      std::string duration =
          Eq("duration", static_cast<int64_t>(rng() % 8 + 1));
      if (tmpl < 4) {
        r.shape = Shape::kForest;
        r.collection = "family";
      } else {
        r.shape = Shape::kListScan;
        r.collection = "song";
      }
      switch (tmpl) {
        case 0:
          r.texts = {Eq("citizen", "Brazil") + "(!?* " +
                     Eq("citizen", Pick(rng, kRareCountries)) + " !?*)"};
          break;
        case 1:
          r.texts = {Eq("eyes", Pick(rng, kEyes)) + "(?* " +
                     Eq("eyes", Pick(rng, kEyes)) + " ?*)"};
          break;
        case 2:
          r.texts = {Eq("education", Pick(rng, kEducation)) + "(?* " +
                     Eq("citizen", "Brazil") + " ?*)"};
          break;
        case 3:
          r.texts = {Eq("citizen", "Brazil") + "([[" +
                     Eq("eyes", Pick(rng, kEyes)) + "(?* @x ?*)]]*@x)"};
          break;
        case 4:
          r.texts = {Eq("pitch", p1) + " " + Eq("pitch", p2) + " " +
                     Eq("pitch", p3)};
          break;
        case 5:
          r.texts = {Eq("pitch", p1) + " " + Eq("pitch", p2) + " " + duration};
          break;
        case 6:
          r.texts = {Eq("pitch", p1) + " " + Eq("pitch", p2) + "+ " + duration};
          break;
        default:
          r.texts = {"[[" + Eq("pitch", p1) + " " + Eq("pitch", p2) + "]]+ " +
                     Eq("pitch", p3)};
          break;
      }
      r.tmpl = "s" + std::to_string(tmpl);
      cycle.push_back(std::move(r));
    }
  }
  return cycle;
}

// Standing query groups: every request carries one group of eight rare
// (name, citizenship) conjunctions over the forest and one group of eight
// two-note motifs over the tune, and ExecuteBatch batches each group.
// Sending the two kinds in alternate requests made the latency bimodal,
// and the median then sat on the gap between the modes.
std::vector<Request> BatchCycle(const Sizes& sz, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 7));
  std::vector<Request> cycle;
  for (size_t g = 0; g < sz.batch_requests; ++g) {
    Request r;
    r.shape = Shape::kBatch;
    r.collection = "family+tune";
    r.tmpl = "b";
    for (size_t j = 0; j < 8; ++j) {
      std::string name =
          "P" + std::to_string(3 + rng() % (sz.family_people - 3));
      r.texts.push_back("{name == " + Quote(name) + " && citizen == " +
                        Quote(Pick(rng, kRareCountries)) + "}");
      r.list_texts.push_back("{pitch == " + Quote(Pick(rng, kPitches)) +
                             " && duration == 7} {pitch == " +
                             Quote(Pick(rng, kPitches)) +
                             " && duration == 8}");
    }
    cycle.push_back(std::move(r));
  }
  return cycle;
}

// Puts `major` and `minor` into `w->requests` and orders them as `major`
// with the next `minor` request (cycling) after every `every` of them.
void Interleave(std::vector<Request> major, std::vector<Request> minor,
                size_t every, Workload* w) {
  const uint32_t minor_base = static_cast<uint32_t>(major.size());
  size_t next_minor = 0;
  for (uint32_t i = 0; i < minor_base; ++i) {
    w->order.push_back(i);
    if ((i + 1) % every == 0) {
      w->order.push_back(minor_base +
                         static_cast<uint32_t>(next_minor++ % minor.size()));
    }
  }
  w->requests = std::move(major);
  for (Request& r : minor) w->requests.push_back(std::move(r));
}

}  // namespace

PredicateRef ForestSelectPredicate() {
  return Predicate::Not(
      Predicate::AttrEquals("citizen", Value::String("none")));
}

Status BuildDatabase(const std::string& name, uint64_t seed, Scale scale,
                     Database* db) {
  const Sizes sz = SizesFor(scale);
  if (name == "point_anchored") {
    AQUA_RETURN_IF_ERROR(BuildPoint(sz, seed, db));
    return BuildAnchored(sz, seed, db);
  }
  if (name == "scan_batch") return BuildScanBatch(sz, seed, db);
  return Status::InvalidArgument("unknown workload: " + name);
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              Scale scale) {
  const Sizes sz = SizesFor(scale);
  Workload w;
  w.name = name;
  if (name == "point_anchored") {
    // One anchored request after every six point requests: the median
    // falls among point reads, p95 in the middle of the anchored tree
    // requests (see README.md).
    w.threads = 1;
    w.oracle = Oracle::kUnoptimized;
    Interleave(PointCycle(sz, seed), AnchoredCycle(sz, seed), 6, &w);
  } else if (name == "scan_batch") {
    // One batch request after every three scan requests; both cost
    // 15-35 ms, so the latency percentiles fall inside one cluster.
    w.threads = 2;
    w.oracle = Oracle::kSerial;
    Interleave(ScanCycle(sz, seed), BatchCycle(sz, seed), 3, &w);
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return w;
}

}  // namespace aqua::perfbench
