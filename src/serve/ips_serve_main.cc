// ips_serve: the long-lived model-serving daemon.
//
// Serving:
//   ips_serve --model=name,artifact.ipsrun,train.tsv [--model=...]
//             [--port=0] [--max_batch=64]
//             [--access_log=PATH --log_max_bytes=N --log_keep=K]
// Binds 127.0.0.1 (port 0 = kernel-chosen, printed on stdout as
// "listening on 127.0.0.1:<port>"), loads every --model into the registry
// and serves until SIGINT/SIGTERM. A client asking to reload re-reads the
// model's artifact + train paths from disk, so replacing the files and
// sending kReloadRequest is a zero-downtime swap.
//
// Fixture generation (used by CI and the bench soak):
//   ips_serve --make_fixture=DIR
// Creates DIR if needed and writes DIR/train.tsv, DIR/test.tsv,
// DIR/model.ipsrun and a deliberately different DIR/model_alt.ipsrun (same
// train split, different discovery parameters) so reload tests can swap
// between two real artifacts.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/config.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace {

struct ModelFlag {
  std::string name;
  std::string artifact_path;
  std::string train_path;
};

bool ParseModelFlag(const std::string& value, ModelFlag* out) {
  const size_t first = value.find(',');
  if (first == std::string::npos) return false;
  const size_t second = value.find(',', first + 1);
  if (second == std::string::npos) return false;
  out->name = value.substr(0, first);
  out->artifact_path = value.substr(first + 1, second - first - 1);
  out->train_path = value.substr(second + 1);
  return !out->name.empty() && !out->artifact_path.empty() &&
         !out->train_path.empty();
}

bool FlagValue(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

ips::IpsOptions FixtureOptions() {
  ips::IpsOptions options;
  options.sample_count = 6;
  options.sample_size = 3;
  options.length_ratios = {0.15, 0.25};
  options.shapelets_per_class = 4;
  return options;
}

int MakeFixture(const std::string& dir) {
  ips::GeneratorSpec spec;
  spec.name = "serve_fixture";
  spec.num_classes = 2;
  spec.train_size = 16;
  spec.test_size = 60;
  spec.length = 96;
  const ips::TrainTestSplit data = ips::GenerateDataset(spec);

  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  if (!ips::SaveUcrFile(data.train, dir + "/train.tsv") ||
      !ips::SaveUcrFile(data.test, dir + "/test.tsv")) {
    std::cerr << "error: cannot write fixture splits under " << dir << "\n";
    return 1;
  }

  ips::IpsClassifier primary(FixtureOptions());
  primary.Fit(data.train);
  if (!ips::SaveRunResult(primary.result(), dir + "/model.ipsrun")) {
    std::cerr << "error: cannot write " << dir << "/model.ipsrun\n";
    return 1;
  }

  // The alternate artifact must genuinely differ (different sampling →
  // different shapelets) so a reload swap is observable.
  ips::IpsOptions alt_options = FixtureOptions();
  alt_options.seed = 1234;
  alt_options.shapelets_per_class = 3;
  ips::IpsClassifier alternate(alt_options);
  alternate.Fit(data.train);
  if (!ips::SaveRunResult(alternate.result(), dir + "/model_alt.ipsrun")) {
    std::cerr << "error: cannot write " << dir << "/model_alt.ipsrun\n";
    return 1;
  }

  std::cout << "fixture written to " << dir << " (" << spec.train_size
            << " train / " << spec.test_size << " test, "
            << primary.result().shapelets.size() << " + "
            << alternate.result().shapelets.size() << " shapelets)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<ModelFlag> models;
  ips::serve::ServerOptions options;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (FlagValue(arg, "make_fixture", &value)) {
      return MakeFixture(value);
    } else if (FlagValue(arg, "model", &value)) {
      ModelFlag flag;
      if (!ParseModelFlag(value, &flag)) {
        std::cerr << "error: --model expects name,artifact_path,train_path "
                     "(got \""
                  << value << "\")\n";
        return 2;
      }
      models.push_back(std::move(flag));
    } else if (FlagValue(arg, "port", &value)) {
      options.port = std::atoi(value.c_str());
    } else if (FlagValue(arg, "max_batch", &value)) {
      options.queue.max_batch =
          static_cast<size_t>(std::atol(value.c_str()));
    } else if (FlagValue(arg, "access_log", &value)) {
      options.access_log_path = value;
    } else if (FlagValue(arg, "log_max_bytes", &value)) {
      options.access_log_max_bytes =
          static_cast<size_t>(std::atol(value.c_str()));
    } else if (FlagValue(arg, "log_keep", &value)) {
      options.access_log_keep = std::atoi(value.c_str());
    } else {
      std::cerr << "error: unknown flag " << arg << "\n";
      return 2;
    }
  }

  if (models.empty()) {
    std::cerr << "usage: ips_serve --model=name,artifact.ipsrun,train.tsv "
                 "[--model=...] [--port=N] [--max_batch=N] "
                 "[--access_log=PATH]\n"
                 "       ips_serve --make_fixture=DIR\n";
    return 2;
  }

  ips::serve::ModelRegistry registry;
  for (const ModelFlag& flag : models) {
    std::string error;
    const uint32_t version = registry.Load(
        flag.name,
        ips::serve::ModelSource{flag.artifact_path, flag.train_path,
                                ips::IpsOptions{}},
        &error);
    if (version == 0) {
      std::cerr << "error: loading model \"" << flag.name << "\": " << error
                << "\n";
      return 1;
    }
    const auto model = registry.Get(flag.name);
    std::cout << "loaded model \"" << flag.name << "\" v" << version << " ("
              << model->shapelet_count() << " shapelets, "
              << model->train_size() << " train series)\n";
  }

  // Block the termination signals BEFORE starting server threads so every
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  sigprocmask(SIG_BLOCK, &mask, nullptr);

  ips::serve::Server server(&registry, options);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;

  int signal_number = 0;
  sigwait(&mask, &signal_number);
  std::cout << "received " << strsignal(signal_number)
            << ", shutting down\n";
  server.Stop();
  return 0;
}
