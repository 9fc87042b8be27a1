package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Benchmark entry point (normally launched by `run.py`):
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                --work <scratch dir> --out <results dir>
  * }}}
  *
  * Prints every metric by name and unit, then, as the last line of stdout,
  * one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
  * end-to-end metrics, or with `--trace 1` the per-layer ones).
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        work: String, out: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    require(args.length % 2 == 0, s"arguments come in --key value pairs: ${args.mkString(" ")}")
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
         need("trace") match { case "0" => false; case "1" => true
                               case t => throw new IllegalArgumentException(s"--trace $t") },
         kv.getOrElse("work", ".bench_build/work"), kv.getOrElse("out", ".bench_build/results"))
  }

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val o = parse(args)
    val w = Workload.byName(o.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${o.workload}; " +
        s"known: ${Workload.all.map(_.name).mkString(", ")}"))
    require(o.seconds >= 1, "--seconds must be at least 1")
    val runId = s"${w.name}-seed${o.seed}-${java.util.UUID.randomUUID().toString.take(8)}"
    val trace = new Trace(o.trace, runId)
    val out   = trace.span("bench.run")(w.run(Ctx(o.seed, o.seconds, trace, o.work, jvmStartMs)))

    val config = Seq(
      "workload" -> w.name, "why" -> w.why, "seed" -> o.seed, "seconds" -> o.seconds,
      "trace" -> o.trace, "run_id" -> runId,
      "git_sha" -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.source_digest", "unknown"),
    ) ++ out.config

    println(s"== MoniLog benchmark: ${w.name} (seed ${o.seed}, ${o.seconds} s, trace ${if (o.trace) 1 else 0})")
    println(s"   why: ${w.why}")
    config.foreach { case (k, v) => println(s"config  $k = ${Json.value(v)}") }
    out.endToEnd.foreach(m => println(line("end-to-end", m)))
    out.perLayer.foreach(m => println(line("layer", m)))
    out.notes.foreach(n => println(s"note    $n"))
    if (o.trace) Report.traceSummary(trace).foreach(println)

    val names    = (if (o.trace) Catalog.perLayer else Catalog.endToEnd).map(_.name)
    val produced = (if (o.trace) out.perLayer else out.endToEnd).map(m => m.name -> m).toMap
    require(produced.keySet == names.toSet,
            s"metrics out of step with the catalog: extra ${produced.keySet -- names}, missing ${names.toSet -- produced.keySet}")
    val reported = names.map(produced)
    val metricsJson = Json.Raw(reported.map { m =>
      s"${Json.str(m.name)}: ${Json.obj("value" -> m.value, "unit" -> m.unit)}"
    }.mkString("{", ", ", "}"))
    val result = Json.obj("correct" -> (out.failed == 0), "attempted" -> out.attempted,
                          "failed" -> out.failed, "metrics" -> metricsJson)

    val dir = Paths.get(o.out)
    Files.createDirectories(dir)
    val stem = s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    Files.write(dir.resolve(s"$stem.json"), Json.obj(
      "config" -> Json.Raw(Json.obj(config: _*)),
      "end_to_end" -> Json.Raw(out.endToEnd.map(metricJson).mkString("[", ", ", "]")),
      "per_layer" -> Json.Raw(out.perLayer.map(metricJson).mkString("[", ", ", "]")),
      "notes" -> out.notes, "result" -> Json.Raw(result),
    ).getBytes(StandardCharsets.UTF_8))
    if (o.trace)
      Files.write(dir.resolve(s"$stem.spans.jsonl"),
                  trace.toJsonLines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    println(result)
    System.out.flush()
    // Everything is written; skip Spark's shutdown hooks, which take seconds
    // (the runner deletes the scratch directory).
    Runtime.getRuntime.halt(0)
  }

  private def metricJson(m: Metric): String = Json.obj("name" -> m.name, "value" -> m.value, "unit" -> m.unit)

  private def line(kind: String, m: Metric): String = {
    val about = Catalog.entry(m.name).map(e => s"  [${e.about}]").getOrElse("")
    f"$kind%-10s ${m.name}%-30s = ${m.value}%16.6f ${m.unit}$about"
  }
}
